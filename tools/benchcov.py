"""Print every statement of the package that no benchmark workload runs.

Installs linecov's tracer, then imports `perfbench/workloads.py`, so that
the package's module-level code counts too, and serves one seed-1 pass of
each workload's corpus in this process, as a pass of
`perfbench/run.py --seed 1` serves it: every request with its own check,
and the digest of the outputs, which it prints beside the workload's name
to match against perfbench/README.md.  Then it prints each statement in
`src/rainbowcube` that no request reached, as `module.py:line  source`,
and their number, as linecov does for the tests.  Run from anywhere, with
no options:

    python tools/benchcov.py

Lines run in a subprocess are not counted: explicit-wide-hosts builds its
host texts in a child interpreter, so the refined-Cayley generator and the
host writer count only where another workload runs them.
"""

import hashlib
import sys

import linecov


def main() -> None:
    sys.path[:0] = [str(linecov.PACKAGE.parent), str(linecov.ROOT / "perfbench")]
    sys.settrace(linecov.tracer)
    try:
        import workloads

        for workload in workloads.WORKLOADS.values():
            w, digest = workload(), hashlib.sha256()
            inputs = w.inputs(1)
            hosts = w.load(inputs.hosts)
            for req in inputs.requests:
                digest.update(w.digest_text(w.run(hosts, req)).encode())
            print(f"{w.name} {digest.hexdigest()}")
    finally:
        sys.settrace(None)
    linecov.report()


if __name__ == "__main__":
    main()
