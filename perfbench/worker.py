"""One workload process: set up, report ready, measure, report results.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
Protocol on standard output (everything else goes to standard error):

* ``READY {"rss_root": pid}`` once set-up is done; the parent times
  set-up from process start to this line and samples the memory of the
  process tree rooted at ``rss_root``.
* ``RESULT {...}`` with the measurements, unless ``--setup-only``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from common import Tracer, layer_self_times

WORKLOADS = {
    "vector_n2048": "wl_vector",
    "campaign_object": "wl_campaign",
    "serve_mixed": "wl_serve",
}


def emit(tag: str, payload) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", help="write the traced spans here")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module = __import__(WORKLOADS[args.workload])
    tracer = Tracer() if args.trace else None
    state = module.setup(args, tracer)
    try:
        emit("READY", {"rss_root": state.rss_root or os.getpid()})
        if args.setup_only:
            return 0
        result = module.measure(state, args, tracer)
    finally:
        state.close()
    if tracer is not None:
        for layer, seconds in layer_self_times(tracer.spans).items():
            result["layer"][f"self_s.{layer}"] = seconds
        if args.spans:
            tracer.dump(args.spans)
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
