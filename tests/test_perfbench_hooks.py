"""perfbench/layers.py still finds every program name it hooks.

The benchmark's traced runs wrap engine functions and server and
repository methods by name.  A renamed or deleted target would crash
the benchmark; this test makes it a test failure instead.  The hooks
patch modules process-wide, so they are installed in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json

import layers
from repro.obs import Tracer
from repro.rewriting import RewriteSession, paper_dtd
from repro.workloads import query_q3, view_v1

layers.install_library()
layers.install_server(layers.ServerLog())
tracer = Tracer()
token = layers.CURRENT.set(tracer)
try:
    result = RewriteSession({"V1": view_v1()}, paper_dtd()).rewrite(
        query_q3())
finally:
    layers.CURRENT.reset(token)
waterfall = layers.Waterfall()
waterfall.add_tree("q3", tracer)
print(json.dumps({"rewritings": len(result.rewritings),
                  "problems": waterfall.problems,
                  "first_problem": waterfall.first_problem,
                  "layers": sorted(waterfall.self_s)}))
"""


def test_hooks_install_and_trace_one_rewrite():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["rewritings"] > 0
    assert (report["problems"], report["first_problem"]) == (0, None)
    assert {"rewrite", "chase", "compose", "equivalence"} \
        <= set(report["layers"])
