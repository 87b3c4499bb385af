#!/usr/bin/env python3
"""Recompute pins.json: the exact-label digests and quality outputs that
run.py checks against.

    python3 perfbench/make_pins.py

Run it only at a commit whose outputs are known to be right; a pin records
what the program must keep producing.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def pins_for(scale):
    import workloads

    cfg = workloads.SCALES[scale]
    pins = {"config": cfg}
    for name in ("gen-mid", "gen-small"):
        c = cfg[name]
        pins[name] = {
            str(c["seed0"] + k): workloads.label_digest(workloads.gen_unit(c, k)[0])
            for k in range(c["units"])
        }
    pins["fixture"] = workloads.label_digest(workloads.fixture(cfg))
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        workdir = Path(tmp)
        workloads.setup("resat", cfg, 0, workdir)
        for name, keys in workloads.QUALITY.items():
            rep = workloads.Run(name, cfg, 0, workdir, pins).rep()
            pins.update({key: rep.extra[key] for key in keys})
    return pins


def main():
    run.OUT.mkdir(parents=True, exist_ok=True)
    run.import_gedraft(run.build())
    sys.path.insert(0, str(run.HERE))
    pins = {scale: pins_for(scale) for scale in ("full", "tiny")}
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
