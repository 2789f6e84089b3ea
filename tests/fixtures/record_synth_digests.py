#!/usr/bin/env python3
"""Record generator digests for the shapes that `synth_digests.json` lacks.

    PYTHONPATH=src python3 tests/fixtures/record_synth_digests.py

Every shape in `DIGEST_SHAPES` (tests/test_synthgen.py) that the file does
not hold yet gets one digest per stored seed, from the generator in this
checkout. Add a shape and record it before changing the generator, so that
its digests guard the change. The script never rewrites what is stored: it
refuses to run under a numpy other than the one the file names, or when a
stored shape is missing from `DIGEST_SHAPES` or has a different config there.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from test_synthgen import DIGEST_SHAPES, SYNTH_DIGESTS, fileset_digest  # noqa: E402

from bibliorank.synthgen import GenConfig, generate  # noqa: E402


def main() -> int:
    stored = json.loads(SYNTH_DIGESTS.read_text(encoding="utf-8"))
    if stored["numpy"] != np.__version__:
        sys.exit(f"the digests were recorded with numpy {stored['numpy']}; "
                 f"this is numpy {np.__version__}")
    changed = sorted(s for s, config in stored["shapes"].items()
                     if DIGEST_SHAPES.get(s) != config)
    if changed:
        sys.exit(f"stored shapes changed or dropped in DIGEST_SHAPES: {changed}")
    missing = [s for s in DIGEST_SHAPES if s not in stored["digests"]]
    for shape in missing:
        digests = []
        for seed in stored["seeds"]:
            with tempfile.TemporaryDirectory() as tmp:
                generate(GenConfig(seed=seed, **DIGEST_SHAPES[shape]), tmp)
                digests.append(fileset_digest(Path(tmp)))
        stored["shapes"][shape] = DIGEST_SHAPES[shape]
        stored["digests"][shape] = digests
        print(f"{shape}: recorded {len(digests)} digests")
    if not missing:
        print("every shape is stored")
        return 0
    SYNTH_DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
