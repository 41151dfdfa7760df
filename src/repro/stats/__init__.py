"""Statistics substrate: binomial GLM (IRLS), t-tests, summaries.

Implements the paper's Fig 6b validation analysis (binomial GLM of crossing
probability against agent count and a CPU/GPU platform indicator, with a
t-test on the platform coefficient) from first principles.

scipy (the ``stats`` extra) supplies the distribution functions and is
imported inside the functions that evaluate one, never at module level,
so importing this package (and ``repro``) needs numpy alone.
"""

from .glm import BinomialGLM, GLMResult, add_intercept
from .links import Link, LogitLink, ProbitLink, get_link
from .summary import Summary, mean_ci, summarize
from .tests_ import TTestResult, paired_ttest, wald_test, welch_ttest

__all__ = [
    "BinomialGLM",
    "GLMResult",
    "add_intercept",
    "Link",
    "LogitLink",
    "ProbitLink",
    "get_link",
    "TTestResult",
    "welch_ttest",
    "paired_ttest",
    "wald_test",
    "Summary",
    "summarize",
    "mean_ci",
]
