"""Run one covertsim CLI invocation in this fresh process and report on it.

    python3 perfbench/launch.py REPORT.json [--trace|--setup-only] -- <covertsim CLI arguments>

Times the set-up a user pays on every invocation (`import covertsim.cli`
plus loading the scenario config), then calls `covertsim.cli.main` with the
arguments, exactly as `python -m covertsim.cli` would.  With --trace the
public functions of every module are wrapped first (see tracer.py) and the
span summary goes into the report.  Exits with the CLI's own exit code.
With --setup-only it reports the set-up time and exits 0 without running
the CLI.
"""

import json
import sys
import time

_T0 = time.perf_counter()


def main():
    split = sys.argv.index("--")
    report_path, *flags = sys.argv[1:split]
    argv = sys.argv[split + 1:]

    import covertsim.cli as cli
    from covertsim import model

    model.load_scenario(argv[1])
    report = {"setup_s": time.perf_counter() - _T0}
    if "--setup-only" in flags:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return 0
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer

        tracer = Tracer.install()
    code = cli.main(argv)
    if tracer is not None:
        report["trace"] = tracer.summary()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
