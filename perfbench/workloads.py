"""Seeded model generators for the idjt benchmark, each with an independent reference.

Every workload is a fixed list of model structures; the workload seed only
draws the CPT and utility values.  Each model carries a reference MEU that is
computed without idjt's compiler or solver:

- ``sweep``: ``oracle.brute_force`` on the generated diagram.
- ``chain``: a Markov dynamic program (stage chains) or a matrix product
  (pure chains) over the generator's raw arrays.
- ``wide``: the closed form of the diagnosis model, and an exact forward
  sweep over the grid's row profile (a 2^14-state frontier).

``run.py`` imports this module; it has no command line of its own.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
SWEEP_MODELS = 1000
STAGE_CHAINS = (50, 100, 161)  # decisions m: 2m+1 variables
PURE_CHAINS = (101, 301, 601)  # variables n
DEEP_CHAINS = (1201, 2001)  # attempted once per run, outside the timing metrics
DIAGNOSIS_SYMPTOMS = 20
GRID_WIDTH = 14
BINARY = ("s0", "s1")


def import_idjt():
    """Import idjt from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "idjt" / "__init__.py").is_file():
        raise SystemExit(f"error: no idjt sources under {src}")
    sys.path.insert(0, str(src))
    import idjt

    if Path(idjt.__file__).resolve().parent != (src / "idjt").resolve():
        raise SystemExit(f"error: imported idjt from {idjt.__file__}, not from {src}")
    return idjt


idjt = import_idjt()
from idjt.model import InfluenceDiagram, Utility, chance_var, decision_var, write_model  # noqa: E402
from idjt.oracle import brute_force  # noqa: E402
from idjt.randmodels import random_model  # noqa: E402
from idjt.tables import Table  # noqa: E402


@dataclass
class Model:
    name: str
    text: str
    reference: Callable[[], float]  # independent MEU
    deep: bool = False  # attempted once per run; counts only in the failure tally


def _rows(rng, n_rows: int, card: int = 2) -> np.ndarray:
    """Positive CPT rows that sum to one, drawn like ``random_model`` draws them."""
    vals = rng.uniform(0.05, 1.0, size=(n_rows, card))
    return vals / vals.sum(axis=1, keepdims=True)


def _utility(rng, shape) -> np.ndarray:
    return rng.uniform(-10.0, 10.0, size=shape)


def _diagram(variables, parents, cpts, utilities) -> InfluenceDiagram:
    variables = tuple(sorted(variables, key=lambda v: (v.rank, v.name)))
    return InfluenceDiagram(variables, parents, cpts, tuple(utilities))


def _cpt(child, ps, values: np.ndarray) -> Table:
    """CPT over (parents..., child), values indexed in that order."""
    return Table.from_flat(list(ps) + [child], values.reshape(-1))


# -- sweep -------------------------------------------------------------------


def _redraw(diagram: InfluenceDiagram, rng) -> InfluenceDiagram:
    """Same structure and CPT zero pattern, fresh values."""
    cpts = {}
    for v in diagram.chance_variables:
        old = diagram.cpts[v.name]
        axis = old.domain.index(v)
        vals = np.where(old.values == 0.0, 0.0, rng.uniform(0.05, 1.0, size=old.values.shape))
        cpts[v.name] = Table(old.domain, vals / vals.sum(axis=axis, keepdims=True))
    utilities = tuple(
        Utility(u.name, u.domain, Table(u.table.domain, _utility(rng, u.table.values.shape)))
        for u in diagram.utilities
    )
    return InfluenceDiagram(diagram.variables, diagram.parents, cpts, utilities)


def _oracle_model(name: str, diagram: InfluenceDiagram, text: str | None = None) -> Model:
    return Model(name, text or write_model(diagram), lambda: brute_force(diagram).meu)


@functools.cache
def _sweep_draws() -> tuple[InfluenceDiagram, ...]:
    # Cached: a run builds the default-seed fingerprint and its own seed from one set.
    return tuple(random_model(i, structural_zeros=i % 2 == 1) for i in range(SWEEP_MODELS))


def sweep(seed: int) -> list[Model]:
    """1000 default-size ``random_model`` structures plus the two shipped models.

    Odd draws carry structural zeros, as in ``scripts/oracle_sweep.py``.  The
    default seed keeps the values ``random_model`` drew; other seeds redraw
    them on the same structure and zero pattern.
    """
    rng = np.random.default_rng([seed, 0])
    out = []
    for i, diagram in enumerate(_sweep_draws()):
        if seed != DEFAULT_SEED:
            diagram = _redraw(diagram, rng)
        out.append(_oracle_model(f"random{i:04d}", diagram))
    for name in ("golden", "tiny"):
        text = (ROOT / "models" / f"{name}.idm").read_text(encoding="utf-8")
        out.append(_oracle_model(name, idjt.parse_model(text), text))
    return out


# -- chain -------------------------------------------------------------------


def stage_chain(m: int, rng) -> Model:
    """x0; then for k = 1..m a decision D_k, x_k | x_{k-1}, D_k, utility on (D_k, x_k).

    x_k is observed in stage k, so the model is a finite-horizon Markov
    decision process and its MEU is a backward dynamic program.
    """
    xs = [chance_var(f"x{k}", BINARY, k) for k in range(m + 1)]
    ds = [decision_var(f"D{k}", ("a", "b"), k) for k in range(1, m + 1)]
    p0 = _rows(rng, 1)[0]
    trans = [_rows(rng, 4).reshape(2, 2, 2) for _ in range(m)]  # [x_{k-1}, D_k, x_k]
    utils = [_utility(rng, (2, 2)) for _ in range(m)]  # [D_k, x_k]
    parents = {"x0": ()}
    cpts = {"x0": _cpt(xs[0], (), p0)}
    utilities = []
    for k in range(1, m + 1):
        ps = (xs[k - 1], ds[k - 1])
        parents[f"x{k}"] = ps
        cpts[f"x{k}"] = _cpt(xs[k], ps, trans[k - 1])
        dom = (ds[k - 1], xs[k])
        utilities.append(Utility(f"u{k}", dom, Table.from_flat(dom, utils[k - 1].reshape(-1))))
    diagram = _diagram(xs + ds, parents, cpts, utilities)

    def reference() -> float:
        value = np.zeros(2)  # V_{k+1}(x_k)
        for k in range(m, 0, -1):
            q = np.einsum("adb,db->ad", trans[k - 1], utils[k - 1]) + trans[k - 1] @ value
            value = q.max(axis=1)
        return float(p0 @ value)

    return Model(f"stage{2 * m + 1}", write_model(diagram), reference)


def pure_chain(n: int, rng, deep: bool = False) -> Model:
    """x0 observed, then D1, then hidden x1..x_{n-2}: x1 | x0, D1 and x_i | x_{i-1}.

    One utility on the last variable; the MEU is a matrix product down the chain.
    """
    xs = [chance_var("x0", BINARY, 0)] + [chance_var(f"x{i}", BINARY, 1) for i in range(1, n - 1)]
    d1 = decision_var("D1", ("a", "b"), 1)
    p0 = _rows(rng, 1)[0]
    first = _rows(rng, 4).reshape(2, 2, 2)  # [x0, D1, x1]
    steps = [_rows(rng, 2) for _ in range(n - 3)]  # steps[i-2][x_{i-1}, x_i]
    util = _utility(rng, 2)
    parents = {"x0": (), "x1": (xs[0], d1)}
    cpts = {"x0": _cpt(xs[0], (), p0), "x1": _cpt(xs[1], (xs[0], d1), first)}
    for i in range(2, n - 1):
        parents[f"x{i}"] = (xs[i - 1],)
        cpts[f"x{i}"] = _cpt(xs[i], (xs[i - 1],), steps[i - 2])
    last = xs[-1]
    utilities = [Utility("u", (last,), Table.from_flat((last,), util))]
    diagram = _diagram(xs + [d1], parents, cpts, utilities)

    def reference() -> float:
        value = util
        for step in reversed(steps):
            value = step @ value
        return float(p0 @ (first @ value).max(axis=1))

    return Model(f"pure{n}", write_model(diagram), reference, deep)


def chain(seed: int) -> list[Model]:
    rng = np.random.default_rng([seed, 1])
    out = [stage_chain(m, rng) for m in STAGE_CHAINS]
    out += [pure_chain(n, rng) for n in PURE_CHAINS]
    out += [pure_chain(n, rng, deep=True) for n in DEEP_CHAINS]
    return out


# -- wide --------------------------------------------------------------------


def diagnosis(k: int, rng) -> Model:
    """Hidden h, k symptoms o_i | h observed before D1, utility on (D1, h).

    MEU = sum_o max_d sum_h P(h) prod_i P(o_i | h) U(d, h), in closed form.
    """
    h = chance_var("h", BINARY, 1)
    os_ = [chance_var(f"o{i}", BINARY, 0) for i in range(1, k + 1)]
    d1 = decision_var("D1", ("a", "b"), 1)
    prior = _rows(rng, 1)[0]
    lik = [_rows(rng, 2) for _ in range(k)]  # [h, o_i]
    util = _utility(rng, (2, 2))  # [D1, h]
    parents = {"h": ()}
    cpts = {"h": _cpt(h, (), prior)}
    for o, p in zip(os_, lik):
        parents[o.name] = (h,)
        cpts[o.name] = _cpt(o, (h,), p)
    utilities = [Utility("u", (d1, h), Table.from_flat((d1, h), util.reshape(-1)))]
    diagram = _diagram(os_ + [h, d1], parents, cpts, utilities)

    def reference() -> float:
        joint = []  # P(h) prod_i P(o_i | h), over all 2^k symptom vectors
        for s in range(2):
            vec = np.array([prior[s]])
            for p in lik:
                vec = np.kron(vec, p[s])
            joint.append(vec)
        per_d = [joint[0] * util[d, 0] + joint[1] * util[d, 1] for d in range(2)]
        return float(np.maximum(*per_d).sum())

    return Model(f"diagnosis{k}", write_model(diagram), reference)


def grid(w: int, rng) -> Model:
    """Hidden binary x_t_i with parents x_{t-1}_i and x_t_{i-1}; D1 -> x_0_0.

    The utility is on (D1, x_{w-1}_{w-1}).  The reference sweeps the grid in
    raster order keeping the exact joint of the w-cell row profile.
    """
    d1 = decision_var("D1", ("a", "b"), 1)
    x = {(t, i): chance_var(f"x_{t}_{i}", BINARY, 1) for t in range(w) for i in range(w)}
    parents, cpts, tables = {}, {}, {}
    for (t, i), v in x.items():
        ps = ((d1,) if (t, i) == (0, 0) else ()) + ((x[t - 1, i],) if t else ())
        ps += (x[t, i - 1],) if i else ()
        tables[t, i] = _rows(rng, 2 ** len(ps)).reshape((2,) * len(ps) + (2,))
        parents[v.name] = ps
        cpts[v.name] = _cpt(v, ps, tables[t, i])
    last = x[w - 1, w - 1]
    util = _utility(rng, (2, 2))  # [D1, last]
    utilities = [Utility("u", (d1, last), Table.from_flat((d1, last), util.reshape(-1)))]
    diagram = _diagram([d1, *x.values()], parents, cpts, utilities)

    def reference() -> float:
        letters = "abcdefghijklmnopqrstuvwxy"[:w]
        best = -np.inf
        for d in range(2):
            front = tables[0, 0][d]  # axis j holds x_0_j once row 0 is built
            for i in range(1, w):
                front = front[..., :, None] * tables[0, i]
            for t in range(1, w):
                for i in range(w):  # replace x_{t-1}_i by x_t_i on axis i
                    out = letters[:i] + "z" + letters[i + 1 :]
                    cpt = letters[i] + (letters[i - 1] if i else "") + "z"
                    front = np.einsum(f"{letters},{cpt}->{out}", front, tables[t, i])
            marginal = front.reshape(-1, 2).sum(axis=0)
            best = max(best, float(marginal @ util[d]))
        return best

    return Model(f"grid{w}", write_model(diagram), reference)


def wide(seed: int) -> list[Model]:
    rng = np.random.default_rng([seed, 2])
    return [diagnosis(DIAGNOSIS_SYMPTOMS, rng), grid(GRID_WIDTH, rng)]


GENERATORS = {"sweep": sweep, "chain": chain, "wide": wide}


def fingerprint(models: list[Model]) -> str:
    digest = hashlib.sha256()
    for m in models:
        digest.update(f"{m.name}\n{m.text}\n".encode())
    return digest.hexdigest()


def generate(workload: str, seed: int) -> list[Model]:
    """The workload's models, generated from scratch as in a fresh process."""
    _sweep_draws.cache_clear()
    return GENERATORS[workload](seed)
