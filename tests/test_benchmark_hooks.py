"""The benchmark tracer still finds every program name it wraps or reads.

``benchmark/tracer.py`` wraps public functions and reads a few internals
(the eigensolver, the induced-Laplacian cache, the autodiff tape). Renaming
or deleting one of them breaks a benchmark run; this test makes that a test
failure instead. The tracer is imported read-only and uninstalled afterwards.
"""

import numpy as np

from benchmark import tracer as tracing
from ccgl import spectral
from ccgl.connectivity import ViewGraph
from tests.oracles import weights_from_edges


def test_tracer_installs_every_hook_and_reads_the_induced_cache():
    tracer = tracing.Tracer()
    graph = ViewGraph(node_features=np.zeros((3, 2)), weights=weights_from_edges(3, [(0, 1, 0.5), (1, 2, -0.3)]))
    try:
        tracer.install()
        spectral.induced_laplacian(spectral.normalized_laplacian(graph), [0, 1])
    finally:
        tracer.uninstall()
    expected = {f"{layer}.{name}" for layer, names in tracing.PUBLIC.items() for name in names}
    expected |= {f"{layer}.{name}" for layer, name in tracing.OPTIONAL}
    assert tracer.absent == set()
    assert tracer.installed == expected
    assert tracer.calls("spectral.induced_laplacian") == 1
    assert tracer.cache_lookups == 1
    assert tracer.calls("spectral._power_iteration") == 2
