"""Tracer fidelity check on small inputs.

For ``verify enumerate --p 5 --q 2`` and a three-sample ``verify
tangent``, the traced call must

* count one ``variety.tangent_dim`` span per point or sample in the report;
* count as many matrices in ``kernels`` as an independent counter, which
  watches the kernel functions' own code run through ``sys.setprofile``
  and so does not depend on which bindings the tracer patched;
* print the same report as the untraced call.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from tracer import ELIMINATION, Tracer

CASES = (
    (["verify", "enumerate", "--p", "5", "--q", "2"], "points"),
    (["verify", "tangent", "--group", "GL3", "--orbit", "2,1", "--p", "11",
      "--q", "4", "--samples", "3"], "samples"),
)


class MatrixCounter:
    """Counts matrices eliminated by outermost runs of the elimination
    entry points, from the interpreter's profile hook."""

    def __init__(self, kernels):
        self.codes = {getattr(kernels, name).__code__ for name in ELIMINATION}
        self.batch_code = kernels.batch_nullity_mod.__code__
        self.depth = 0
        self.matrices = 0

    def __call__(self, frame, event, arg):
        if frame.f_code not in self.codes:
            return
        if event == "call":
            if self.depth == 0:
                if frame.f_code is self.batch_code:
                    self.matrices += np.shape(frame.f_locals["stack"])[0]
                else:
                    self.matrices += 1
            self.depth += 1
        elif event == "return":
            self.depth -= 1


def fidelity_check(cli, run_call) -> list[str]:
    """Problems found; an empty list means the tracer is faithful.
    ``run_call(cli, argv)`` makes one CLI call: (exit code, stdout, seconds)."""
    kernels = sys.modules["wdsmooth.kernels"]
    problems = []
    for argv, field in CASES:
        code, plain, _ = run_call(cli, argv)
        counter = MatrixCounter(kernels)
        tracer = Tracer()
        tracer.install()
        sys.setprofile(counter)
        try:
            traced_code, traced, _ = run_call(cli, argv)
        finally:
            sys.setprofile(None)
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        name = " ".join(argv)
        expected = json.loads(plain)["results"][field]
        if metrics["variety.tangent_dim.calls"] != expected:
            problems.append("%s: %d tangent_dim spans for %d %s" % (
                name, metrics["variety.tangent_dim.calls"], expected, field))
        if metrics["kernels.matrices"] != counter.matrices:
            problems.append("%s: kernels.matrices %d, independent count %d" % (
                name, metrics["kernels.matrices"], counter.matrices))
        if (code, plain) != (traced_code, traced):
            problems.append("%s: traced and untraced reports differ" % name)
    return problems
