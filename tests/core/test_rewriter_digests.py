"""The rewriter's output is pinned byte for byte.

``rewriter_digests.json`` holds the sha256 of every section of every image
in :func:`rewritten_images` (all at seed 1): the 10 CLBG kernels under the
ROP configurations the Figure 5 units and the smoke grid use, and the smoke
and reduced Table II specs (secret and coverage variants) under every ROP
configuration of those two slices.  A refactor of the rewriter, the crafter
or the gadget pool must leave every digest unchanged; a change that moves
rows on purpose regenerates the file and says so::

    PYTHONPATH=src python tests/core/test_rewriter_digests.py --write
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.evaluation.grid import SLICES
from repro.obfuscation.configs import TABLE2_CONFIGURATIONS, apply_configuration, ropk
from repro.workloads.clbg import CLBG_BENCHMARKS, build_clbg_program
from repro.workloads.randomfuns import generate_random_function, generate_table2_suite

DIGESTS = Path(__file__).with_name("rewriter_digests.json")
SEED = 1

CLBG_CONFIGURATIONS = (ropk(0.25), ropk(1.00), ropk(1.00, profile="full"))


def _table2_specs():
    specs = []
    for name in ("smoke", "reduced"):
        params = SLICES[name]
        for spec in generate_table2_suite(seeds=params["seeds"],
                                          input_sizes=params["input_sizes"],
                                          structures=params["structures"]):
            if spec not in specs:
                specs.append(spec)
    return specs


def _table2_configurations():
    names = set(SLICES["smoke"]["configurations"]) | set(SLICES["reduced"]["configurations"])
    return [c for c in TABLE2_CONFIGURATIONS if c.kind == "rop" and c.name in names]


def rewritten_images():
    """Yield ``(key, image)`` for every pinned rewriter output."""
    for benchmark in CLBG_BENCHMARKS:
        program, _, _, targets = build_clbg_program(benchmark)
        for configuration in CLBG_CONFIGURATIONS:
            yield (f"clbg/{benchmark}/{configuration.name}",
                   apply_configuration(program, targets, configuration, seed=SEED))
    for spec in _table2_specs():
        for point_test in (True, False):
            variant = replace(spec, point_test=point_test)
            program, _, _ = generate_random_function(variant)
            for configuration in _table2_configurations():
                key = (f"table2/{variant.structure}/{variant.input_size}/{variant.seed}/"
                       f"{'secret' if point_test else 'coverage'}/{configuration.name}")
                yield key, apply_configuration(program, [variant.name], configuration,
                                               seed=SEED)


def section_digests(image):
    return {name: hashlib.sha256(bytes(section.data)).hexdigest()
            for name, section in sorted(image.sections.items())}


def compute_digests():
    return {key: section_digests(image) for key, image in rewritten_images()}


def test_rewritten_images_match_pinned_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert not changed, f"rewritten images changed: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
