"""The public API: the exported names, and the layer functions the benchmark traces."""

import importlib
import inspect
import json
from pathlib import Path

import qufti

PUBLIC_NAMES = [
    "ConjectureReport",
    "DephasingParams",
    "InterferometerSpec",
    "OutcomeDistribution",
    "SizeLimitError",
    "coincidence_probability",
    "compose_qufti",
    "conjecture_verify",
    "dephased_probability",
    "dephased_sensitivity",
    "fock_output_distribution",
    "heisenberg_limit",
    "noon_dephased_sensitivity",
    "orc_photon_count",
    "permanent_closed_form",
    "permanent_naive",
    "permanent_ryser",
    "permanent_with_repeats",
    "phase_sensitivity_small_angle",
    "probability_derivative",
    "protocol_efficiency",
    "qft_matrix",
    "sensitivity_for_mask",
    "shotnoise_limit",
]

LAYERS = ("matrices", "permanent", "analytics", "metrology", "cli")

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_exported_names():
    assert sorted(qufti.__all__) == PUBLIC_NAMES
    for name in qufti.__all__:
        assert getattr(qufti, name) is not None
    # the size-limit error lives beside the count check and keeps its old name in permanent
    assert qufti.SizeLimitError is qufti.matrices.SizeLimitError is qufti.permanent.SizeLimitError


def test_benchmark_layer_functions_exist():
    # per_layer metrics named <layer>.<function>.<calls|self_s> need that function
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    named = {
        tuple(m["name"].split(".")[:2])
        for m in metrics
        if m["name"].split(".")[0] in LAYERS and m["name"].endswith((".calls", ".self_s"))
    }
    assert named
    for layer, func in sorted(named):
        module = importlib.import_module(f"qufti.{layer}")
        obj = getattr(module, func, None)
        assert inspect.isfunction(obj), f"{layer}.{func}"
        assert obj.__module__ == module.__name__ and not func.startswith("_")
