"""Pinned certificates for pairs with many optimal matchings.

Which optimal matching ``distance_certificate`` returns is part of the CLI
output (``persistd cert``), so it must not drift when the matching code is
rewritten.  ``golden_certificates.json`` holds 20 module pairs (replicate k
vs k', staircase n vs n-1, seeded random pairs with repeated summands) and
the certificate JSON recorded for each.  Re-record with
``PYTHONPATH=src python tests/test_golden_certificates.py``.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from persistd import (
    PModule,
    distance_certificate,
    interval,
    module_distance,
    replicate,
    staircase,
    verify_certificate,
)
from persistd.verify import random_interval

GOLDEN = Path(__file__).with_name("golden_certificates.json")


def build_pairs() -> list[tuple[PModule, PModule]]:
    a, b = interval(0, 4, "[)"), interval(1, 5, "[)")
    pairs = [(replicate(a, k), replicate(a, k2)) for k, k2 in ((3, 3), (4, 2), (2, 5))]
    pairs += [
        (replicate(a, k).direct_sum(replicate(b, k2)),
         replicate(a, k2).direct_sum(replicate(b, k)))
        for k, k2 in ((2, 3), (3, 1))
    ]
    # Both orientations: with the bigger staircase second, the certificate
    # is the one that saturates the right side's mandatory summands.
    pairs += [(staircase(n), staircase(n - 1)) for n in range(2, 5)]
    pairs += [(staircase(n - 1), staircase(n)) for n in range(5, 8)]
    rng = random.Random(3)
    while len(pairs) < 20:
        pool = [
            random_interval(rng, Fraction(-4), Fraction(4), 2, allow_infinite=True)
            for _ in range(4)
        ]

        def draw():
            return PModule(
                s for s in pool for _ in range(rng.randint(0, 3))
            )

        m, n = draw(), draw()
        if module_distance(m, n).is_finite:
            pairs.append((m, n))
    return pairs


@pytest.mark.parametrize("entry", json.loads(GOLDEN.read_text()), ids=lambda e: e["name"])
def test_certificate_is_pinned(entry):
    m = PModule.from_json_obj(entry["m"])
    n = PModule.from_json_obj(entry["n"])
    cert = distance_certificate(m, n)
    assert verify_certificate(m, n, cert)
    assert json.dumps(cert.to_json_obj(), sort_keys=True) == entry["cert"]


if __name__ == "__main__":
    entries = []
    for k, (m, n) in enumerate(build_pairs()):
        cert = distance_certificate(m, n)
        entries.append({
            "name": f"pair{k:02d}",
            "m": m.to_json_obj(),
            "n": n.to_json_obj(),
            "cert": json.dumps(cert.to_json_obj(), sort_keys=True),
        })
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
