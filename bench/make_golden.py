#!/usr/bin/env python3
"""Write bench/golden.json: the outputs the benchmark's correctness gate
compares against.

    python3 bench/make_golden.py

Run it only when a change is meant to alter these outputs, and say so in
that change.  The calibrated point and the model-sweep rows depend only on
the row degrees of a regular code, so they hold for every seed; the BER rows
and the worst-case word are recorded for the default seed.
"""

from __future__ import annotations

import json
import sys

from run import import_package


def main() -> int:
    import_package()
    import harness
    from ldpcsim import cli, decoder
    from ldpcsim.parsim import model

    seed = harness.DEFAULT_SEED
    sizes = harness.FULL
    inputs = harness.build_inputs("scale-model", seed, sizes)
    cfg = decoder.DecoderConfig()
    rows = cli.ber_sweep(inputs.short, harness.BER_EBNO, sizes.ber_min_bits, seed, cfg)
    word = decoder.decode(inputs.short, inputs.word, decoder.worst_case_config(cfg))
    cm = model.calibrate(model.CostModel(), model.DEFAULT_SPEEDUP_TARGETS, inputs.short)
    sweeps = {}
    for H in (inputs.short, inputs.model_code):
        prior = harness._llrs(H, harness.MODEL_EBNO, seed)
        got, _ = cli.scale_rows(H, harness.PROCESSORS, "costmodel", prior, cfg,
                                model.CostModel(), worst_case=True, reps=1)
        sweeps[str(H.n)] = harness.model_rows_key(got)
    golden = {
        "seeds": {str(seed): {
            "ber_rows": harness.ber_rows_key(rows),
            "word_digest": harness.word_digest(harness.word_signature(word)),
        }},
        "calibrated_point": harness.calibrated_point(cm),
        "model_sweep": sweeps,
    }
    harness.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {harness.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
