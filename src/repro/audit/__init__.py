"""High-level auditing pipelines.

* :class:`FairnessAuditor` — one-call dataset and classifier audits
  combining the subset sweep, interpretation, posterior uncertainty, and
  the related-work baseline metrics;
* :class:`StreamingAuditor` — the same dataset audit maintained
  incrementally over a live stream, with sliding-window retraction and
  point epsilon recomputed from the live counts after every batch;
* :class:`FeatureSelectionStudy` — the paper's Table 3 experiment: train a
  classifier with each subset of the sensitive attributes as features and
  measure epsilon, bias amplification, and error.
"""

from repro.audit.auditor import ClassifierAudit, DatasetAudit, FairnessAuditor
from repro.audit.stream import StreamingAuditor
from repro.audit.feature_study import (
    FeatureSelectionStudy,
    FeatureStudyResult,
    FeatureStudyRow,
)
from repro.audit.report import (
    markdown_report,
    render_classifier_report,
    render_dataset_report,
)
from repro.audit.tradeoff import (
    TradeoffCurve,
    TradeoffPoint,
    fairness_weight_sweep,
)

__all__ = [
    "TradeoffCurve",
    "TradeoffPoint",
    "fairness_weight_sweep",
    "ClassifierAudit",
    "DatasetAudit",
    "FairnessAuditor",
    "FeatureSelectionStudy",
    "FeatureStudyResult",
    "FeatureStudyRow",
    "StreamingAuditor",
    "markdown_report",
    "render_classifier_report",
    "render_dataset_report",
]
