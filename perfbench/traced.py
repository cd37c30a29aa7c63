"""Run ``kgstruct run --config CONFIG`` in-process with the hot path traced.

Usage: python3 perfbench/traced.py CONFIG SPANS_JSON

Each function in ``spans.HOT_PATH`` is wrapped once and the wrapper is bound
wherever the original was bound: in every ``kgstruct`` module namespace
(``report`` imports ``train``, ``lloyd_kmeans`` and others by name) or on its
class. Spans are written to SPANS_JSON when the run ends; the exit code is
the CLI's.
"""

import importlib
import json
import sys

from spans import HOT_PATH, SpanRecorder


def install(recorder: SpanRecorder) -> None:
    """Wrap every hot-path function wherever it is bound."""
    import kgstruct.cli  # noqa: F401  (imports every module that binds a hot-path name)

    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name == "kgstruct" or name.startswith("kgstruct.")
    ]
    for module_name, names in HOT_PATH.items():
        home = importlib.import_module(f"kgstruct.{module_name}")
        for name in names:
            label = f"{module_name}.{name}"
            if "." in name:
                class_name, method = name.split(".")
                owner = getattr(home, class_name)
                setattr(owner, method, recorder.wrap(label, getattr(owner, method)))
                continue
            original = getattr(home, name)
            wrapper = recorder.wrap(label, original)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    config, spans_path = argv
    recorder = SpanRecorder()
    install(recorder)
    from kgstruct.cli import main as cli_main

    try:
        return cli_main(["run", "--config", config])
    finally:
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump({"spans": recorder.spans}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
