"""Benchmark task generators and losses: amortized clustering, digit sums, point sets."""

from .corpus import load_corpus, save_corpus
from .digitsum import (
    DigitSumSpec,
    digit_sum_accuracy,
    digit_sum_loss,
    gen_digit_corpus,
    gen_digit_test_corpora,
)
from .mog import (
    MoGParams,
    MoGTaskSpec,
    gen_mog_corpus,
    mog_head_value,
    mog_nll_value,
    mog_task_loss,
    oracle_mean_loglik,
)
from .pointset import (
    POINTSET_CLASSES,
    PointSetClassSpec,
    gen_pointset_corpus,
    sample_primitive,
    xent_loss,
)

__all__ = [
    "DigitSumSpec",
    "MoGParams",
    "MoGTaskSpec",
    "POINTSET_CLASSES",
    "PointSetClassSpec",
    "digit_sum_accuracy",
    "digit_sum_loss",
    "gen_digit_corpus",
    "gen_digit_test_corpora",
    "gen_mog_corpus",
    "gen_pointset_corpus",
    "load_corpus",
    "mog_head_value",
    "mog_nll_value",
    "mog_task_loss",
    "oracle_mean_loglik",
    "sample_primitive",
    "save_corpus",
    "xent_loss",
]
