"""Seeded inputs of the benchmark workloads.

Run as a script, this is one set-up repetition: a fresh interpreter
imports ``flockstab`` and writes the workload's inputs into ``--out``.

Only ``spectrum-sweep`` has generated inputs: the four figure specs plus
eight specs drawn from the seed, four per arrangement.  Each generated
spec perturbs the stable figure spec of its arrangement; half of them are
then projected onto the necessary-condition manifold by solving
``necessary_condition_value = 0`` for the forward weight of agent type 1,
the other half are pushed off it by a fixed margin so that ``check``
certifies instability and the root-curve hypotheses hold.  The two
simulation workloads run the paper's fixed specs and ignore the seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from flockstab import (  # noqa: E402
    Arrangement,
    build_spec,
    necessary_condition_value,
    save_spec,
)
from flockstab.figures import figure1, figure2, figure3, figure3c  # noqa: E402

GENERATED_PER_ARRANGEMENT = 4

#: |necessary_condition_value| of the specs pushed off the manifold
OFF_MANIFOLD_MARGIN = (0.05, 0.15)

#: which figure spec each generated spec perturbs
_BASES = {Arrangement.TRIATOMIC_NN: figure1, Arrangement.DIATOMIC_NNN: figure3}

#: figure specs and the verdict the paper gives them
FIGURES = {
    "fig1": (figure1, "stable"),
    "fig2": (figure2, "unstable"),
    "fig3": (figure3, "stable"),
    "fig3c": (figure3c, "unstable"),
}


def _agent_dicts(spec) -> list[dict]:
    return [
        {"g_x": a.g_x, "g_v": a.g_v, "rho_x": dict(a.rho_x), "rho_v": dict(a.rho_v)}
        for a in spec.agents
    ]


def _with_forward_weight(arrangement, agents: list[dict], x: float):
    """Spec with agent 1's rho_x[+1] set to x, rho_x[-1] completing the row."""
    agents = [dict(a, rho_x=dict(a["rho_x"])) for a in agents]
    rho = agents[0]["rho_x"]
    rho[1] = x
    rho[-1] = -1.0 - sum(w for j, w in rho.items() if j != -1)
    return build_spec(arrangement, agents)


def _perturbed(arrangement, rng: np.random.Generator) -> list[dict]:
    agents = _agent_dicts(_BASES[arrangement]())
    for a in agents:
        a["g_x"] *= rng.uniform(0.8, 1.25)
        a["g_v"] *= rng.uniform(0.8, 1.25)
        for key in ("rho_x", "rho_v"):
            rho = a[key]
            for j in rho:
                if j != -1:
                    rho[j] += rng.uniform(-0.05, 0.05)
            rho[-1] = -1.0 - sum(w for j, w in rho.items() if j != -1)
    return agents


def generated_specs(seed: int) -> list[tuple[str, object, bool]]:
    """(name, spec, on_manifold) for the seed's eight generated specs."""
    rng = np.random.default_rng(seed)
    out = []
    for arrangement in (Arrangement.TRIATOMIC_NN, Arrangement.DIATOMIC_NNN):
        for i in range(GENERATED_PER_ARRANGEMENT):
            agents = _perturbed(arrangement, rng)
            # necessary_condition_value is affine in agent 1's forward
            # weight, so two evaluations give its zero.
            f0 = necessary_condition_value(_with_forward_weight(arrangement, agents, 0.0))
            f1 = necessary_condition_value(_with_forward_weight(arrangement, agents, 1.0))
            root = -f0 / (f1 - f0)
            on_manifold = i % 2 == 0
            if not on_manifold:
                shift = rng.uniform(*OFF_MANIFOLD_MARGIN) * rng.choice((-1.0, 1.0))
                root += shift / (f1 - f0)
            spec = _with_forward_weight(arrangement, agents, root)
            name = f"gen-{arrangement.value}-{i}"
            out.append((name, spec, on_manifold))
    return out


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Write the workload's specs and an index ``inputs.json`` into out."""
    out.mkdir(parents=True, exist_ok=True)
    index = []
    if workload == "spectrum-sweep":
        # the two stable figures lie on the manifold, the unstable ones off it
        entries = [
            (name, factory(), expected == "stable", expected)
            for name, (factory, expected) in FIGURES.items()
        ]
        entries += [(name, spec, on, None) for name, spec, on in generated_specs(seed)]
        for name, spec, on_manifold, expected in entries:
            save_spec(spec, out / f"{name}.json")
            index.append({
                "name": name,
                "file": f"{name}.json",
                "on_manifold": on_manifold,
                "expected_verdict": expected,
            })
    with open(out / "inputs.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "specs": index}, fh, indent=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
