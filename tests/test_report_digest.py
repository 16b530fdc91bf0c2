"""One SHA-256 over analyze's reports on a fixed set of graphs.

A refactor must leave every report byte-identical, apart from `timings`.
This digest makes that rule a test: it covers the JSON (as `critind analyze
--output json` prints it, without `timings`) and the text report, with and
without checks, for 300 seeded corpus graphs (n 0-12), the three fixtures
and six sparse graphs at n = 300, beyond the oracle bound. A change that
means to alter a report must say so and record the new digest.
"""

import hashlib
import json

from critind import FIXTURE_NAMES, analyze, fixture, generate
from critind.cli import corpus_specs
from strategies import sparse_graph

EXPECTED = "ab28c4fe4bdf7b19bf96b05109e51a524ec0b24ccd45eb45351cfeb656fdc013"


def _inputs():
    yield from (generate(s) for s in corpus_specs(300, 0, 12, [0.1, 0.3, 0.5, 0.8], 20261018))
    yield from (fixture(name) for name in FIXTURE_NAMES)
    for seed, c in enumerate((1.0, 1.5, 2.0, 2.5, 3.0, 4.0)):
        yield sparse_graph(300, c, seed)


def test_report_digest():
    h = hashlib.sha256()
    for g in _inputs():
        for checks in (True, False):
            report = analyze(g, include_checks=checks)
            assert report.ok
            doc = report.to_json_dict()
            del doc["timings"]
            h.update(json.dumps(doc, indent=2).encode())
            h.update(report.to_text().encode())
    assert h.hexdigest() == EXPECTED
