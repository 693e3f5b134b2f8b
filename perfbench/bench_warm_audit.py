"""Re-audit a CSV from its ``.rccol`` cache in a fresh interpreter.

``audit_csv`` times this script from spawn to exit as its
``recovery_s``: how long a restarted batch job takes to answer again
from the durable columnar cache. Prints the audit's epsilon as JSON.

Usage: python bench_warm_audit.py CSV CACHE SEED PROTECTED... OUTCOME
"""

import json
import sys

from bench_batch import POSTERIOR_SAMPLES
from repro.audit.auditor import FairnessAuditor
from repro.engine.backends import CsvSource

csv_path, cache, seed, *columns = sys.argv[1:]
protected, outcome = columns[:-1], columns[-1]
auditor = FairnessAuditor(
    protected,
    outcome,
    estimator=1.0,
    posterior_samples=POSTERIOR_SAMPLES,
    seed=int(seed),
)
audit = auditor.audit_csv(
    CsvSource(csv_path, columns=tuple(columns), column_cache=cache)
)
print(json.dumps({"epsilon": audit.epsilon}))
