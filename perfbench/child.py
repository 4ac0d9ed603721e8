"""One benchmark process: set up and run one flic config as ``flic run`` does.

    python3 perfbench/child.py --config CONFIG --result RESULT [--spans SPANS]

The path is the one ``flic run`` takes: a flat JSON config file,
``config.parse_config``, then ``experiment.run_command``. RESULT gets,
as JSON:

* ``setup_s``: from the start of this script, before ``import flic``,
  until training can start (imports, the config parse, and
  ``load_or_generate`` + ``build_federation``, or ``theory.make_instance``);
* ``run_s``: wall time of the ``experiment.run_command`` call;
* ``peak_rss_mb``: peak resident memory of this process.

With ``--spans`` the flic functions are traced (see ``tracing.py``) and
RESULT also holds per-layer calls and self time. The exit code follows
the ``flic`` command line: 2 config error, 3 divergence, 4 I/O error.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    from flic import cli, config, experiment, theory
    from flic.federation import DivergenceError

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        cfg = config.parse_config(args.config)
        if cfg.mode == "theory":
            theory.make_instance(cfg.theory_config())
        else:
            datasets, n_classes = experiment.load_or_generate(cfg)
            experiment.build_federation(datasets, n_classes, cfg)
            del datasets
        result = {"setup_s": time.perf_counter() - START}
        start = time.perf_counter()
        code = experiment.run_command(cfg)
        result["run_s"] = time.perf_counter() - start
        if code != cli.EXIT_OK:
            return code
    except config.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return cli.EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return cli.EXIT_DIVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return cli.EXIT_IO
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        result.update(tracer.summary())
        tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
