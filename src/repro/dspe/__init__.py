"""The word-count cluster's former home, kept as a re-export.

The simulated cluster of the paper's Q4 lives in
:mod:`repro.queueing.cluster`; these names stay importable here for
callers that still use the old path.
"""

from repro.queueing.cluster import ClusterConfig, WordCountCluster, run_wordcount

__all__ = ["ClusterConfig", "WordCountCluster", "run_wordcount"]
