"""Record the expected values that the benchmark cannot derive on its own.

    python3 perfbench/snapshot.py > perfbench/expected.json

Writes, from the sympf2 found in ./src, the stored automizer order of every
catalog label model, which catalog entries carry a label model, and the
SHA-256 digest of each `sympf2 catalog` export.  The committed file was
taken at the commit that introduced the benchmark; regenerate it only in a
change that means to alter those outputs, and say so in that change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

from gen import entry_key

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sympf2 import catalog, cli

    label_models = []
    has_model = {}
    for entry in catalog.enumerate_all():
        model = catalog.build_label_model(entry)
        has_model[entry_key(entry)] = model is not None
        if model is not None:
            label_models.append({"key": entry_key(entry), "rank": model.rank,
                                 "automizer_order": entry.automizer_order})
    digests = {}
    for lie_type in catalog.LIE_TYPES:
        for fmt in ("csv", "text"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(["catalog", "--type", lie_type, "--format", fmt])
            digests[f"{lie_type}.{fmt}"] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    json.dump({"label_models": label_models, "has_model": has_model,
               "catalog_sha256": digests}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
