"""Independent numpy oracles for the benchmark's output checks.

Nothing here imports qgames.  The circuit, the strategy families, the
depolarizing channels and the default gate menu are rebuilt from their
documented definitions (README "Conventions"), so a defect in the
package cannot hide behind the same defect in the check.

Every check function returns a list of failure messages; an empty list
means the output passed.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9  # reports print floats with 12 significant digits

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
DEFECT = np.array([[0, 1], [-1, 0]], dtype=complex)

PD_ROW = np.array([[3.0, 0.0], [5.0, 1.0]])
PD_COL = PD_ROW.T.copy()
GAMES = {"pd": (PD_ROW, PD_COL, ("C", "D")), "hft": (PD_ROW, PD_COL, ("Buy", "Sell"))}


def strategy(theta: float, alpha: float, beta: float) -> np.ndarray:
    """[[e^{ia} cos t, e^{ib} sin t], [-e^{-ib} sin t, e^{-ia} cos t]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[np.exp(1j * alpha) * c, np.exp(1j * beta) * s],
                     [-np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c]])


def named(name: str, mode: str) -> np.ndarray:
    if name == "C":
        return I2
    if name == "Q":
        return np.diag([1j, -1j])
    if name == "D":
        return 1j * X if mode == "pauli_x" else DEFECT
    raise ValueError(name)


def entangler(gamma: float, mode: str) -> np.ndarray:
    gen = np.kron(X, X) if mode == "pauli_x" else np.kron(DEFECT, DEFECT)
    return math.cos(gamma / 2) * np.eye(4) + 1j * math.sin(gamma / 2) * gen


def final_amps(gamma, mode, u1, u2) -> np.ndarray:
    """J^dagger (U1 x U2) J |00>, batched over leading axes of u1/u2."""
    j = entangler(gamma, mode)
    u1, u2 = np.asarray(u1), np.asarray(u2)
    kron = np.einsum("...ab,...cd->...acbd", u1, u2).reshape(*np.broadcast_shapes(
        u1.shape[:-2], u2.shape[:-2]), 4, 4)
    return (j.conj().T @ kron @ j[:, 0:1])[..., 0]


def probs(gamma, mode, u1, u2) -> np.ndarray:
    return np.abs(final_amps(gamma, mode, u1, u2)) ** 2


def _depolarize(rho: np.ndarray, kind: str, p: float) -> np.ndarray:
    if kind == "two_qubit_depolarizing":
        return (1 - p) * rho + p * np.trace(rho).real * np.eye(4) / 4
    kraus = [math.sqrt(1 - p) * I2] + [math.sqrt(p / 3) * s for s in (X, Y, Z)]
    for ops in ([np.kron(k, I2) for k in kraus], [np.kron(I2, k) for k in kraus]):
        rho = sum(k @ rho @ k.conj().T for k in ops)
    return rho


def noisy_probs(gamma, mode, u1, u2, kind="none", p=0.0, location="return") -> np.ndarray:
    """Kraus density-matrix run; the channel sits after J (forward) or
    after the players' gates (return)."""
    if kind == "none":
        return probs(gamma, mode, u1, u2)
    j = entangler(gamma, mode)
    u = np.kron(u1, u2)
    rho = np.outer(j[:, 0], j[:, 0].conj())
    if location == "forward":
        rho = _depolarize(rho, kind, p)
    rho = u @ rho @ u.conj().T
    if location == "return":
        rho = _depolarize(rho, kind, p)
    return np.diag(j.conj().T @ rho @ j).real.copy()


def default_menu(mode: str) -> np.ndarray:
    """C, D, Q plus the 5x5x5 set-B grid, as (128, 2, 2)."""
    gates = [named("C", mode), named("D", mode), named("Q", mode)]
    axis_t = np.linspace(0, np.pi / 2, 5)
    axis_a = np.linspace(-np.pi, np.pi, 5)
    gates += [strategy(t, a, b) for t in axis_t for a in axis_a for b in axis_a]
    return np.array(gates)


def menu_index(menu: np.ndarray, gate: np.ndarray) -> int:
    """Index of the menu gate equal to `gate` up to a global phase, or -1."""
    fidelity = np.abs(np.einsum("nij,ij->n", menu.conj(), gate)) / 2
    k = int(np.argmax(fidelity))
    return k if fidelity[k] > 1 - 1e-6 else -1


def parse_gate_name(name: str, mode: str) -> np.ndarray:
    """Inverse of the report's gate description: C/D/Q or B(t,a,b)."""
    if name in ("C", "D", "Q"):
        return named(name, mode)
    if name.startswith("B(") and name.endswith(")"):
        return strategy(*(float(x) for x in name[2:-1].split(",")))
    raise ValueError(f"unknown gate description {name!r}")


# -- generic checks ----------------------------------------------------------

def close(label, got, want, tol=TOL) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= tol else [f"{label}: off by {err:.3e} (tol {tol:.0e})"]


def in_bounds(label, values, table) -> list:
    v = np.asarray(values, dtype=float)
    lo, hi = float(np.min(table)), float(np.max(table))
    if v.size and (v.min() < lo - TOL or v.max() > hi + TOL):
        return [f"{label}: payoff outside the cell range [{lo}, {hi}]"]
    return []


def distribution(label, p) -> list:
    p = np.asarray(p, dtype=float)
    errs = close(f"{label} sum", p.sum(axis=-1), np.ones(p.shape[:-1]))
    if p.size and p.min() < -TOL:
        errs.append(f"{label}: negative probability {p.min():.3e}")
    return errs


def menu_regret(pi: np.ndarray, pii: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    vi, vii = float(x @ pi @ y), float(x @ pii @ y)
    return float(np.max(pi @ y)) - vi, float(np.max(x @ pii)) - vii, vi, vii


def menu_equilibrium(label, gamma, mode, row, col, support_i, support_ii, payoffs,
                     eps) -> list:
    """Regret of a reported menu equilibrium against the benchmark's own
    induced table over the full default menu.  Supports are (weight,
    2x2 matrix) pairs."""
    menu = default_menu(mode)
    p = probs(gamma, mode, menu[:, None], menu[None, :])
    pi, pii = p @ row.ravel(), p @ col.ravel()
    errs = []
    mix = []
    for who, support in (("I", support_i), ("II", support_ii)):
        w = np.zeros(len(menu))
        for weight, gate in support:
            k = menu_index(menu, gate)
            if k < 0:
                errs.append(f"{label}: player {who} support gate is not on the default menu")
                continue
            w[k] += weight
        errs += distribution(f"{label}: player {who} weights", w)
        mix.append(w)
    if errs:
        return errs
    ri, rii, vi, vii = menu_regret(pi, pii, *mix)
    if max(ri, rii) > eps + TOL:
        errs.append(f"{label}: regret ({ri:.3e}, {rii:.3e}) exceeds eps_nash {eps:g}")
    return errs + close(f"{label}: payoffs", payoffs, [vi, vii])


# -- CLI report checks -------------------------------------------------------

def read_csv(path: Path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _columns(header, rows, names) -> np.ndarray:
    idx = [header.index(n) for n in names]
    return np.array([[float(r[i]) for i in idx] for r in rows])


def check_report(op, out_dir: Path) -> list:
    """Check one CLI op's report files against the op's expectations."""
    try:
        summary = json.loads((out_dir / f"{op.command}.json").read_text())
        header, rows = read_csv(out_dir / f"{op.command}.csv")
        return _CHECKS[op.command](op.expect, summary, header, rows)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def _pure_nash(row, col):
    return [(i, j) for i in range(2) for j in range(2)
            if row[i, j] >= row[1 - i, j] and col[i, j] >= col[i, 1 - j]]


def _pareto(row, col):
    cells = [(i, j) for i in range(2) for j in range(2)]
    return [(i, j) for i, j in cells if not any(
        row[k, l] >= row[i, j] and col[k, l] >= col[i, j]
        and (row[k, l] > row[i, j] or col[k, l] > col[i, j])
        for k, l in cells if (k, l) != (i, j))]


def _check_equilibria(e, s, header, rows) -> list:
    row, col, labels = GAMES[e["game"]]
    errs = []
    for key, want in (("pure_nash", _pure_nash(row, col)), ("pareto_optimal", _pareto(row, col))):
        if sorted(map(tuple, s[key])) != sorted((labels[i], labels[j]) for i, j in want):
            errs.append(f"{key}: {s[key]} differs from the oracle's {want}")
    for m in s["mixed_nash"]:
        x, y = np.array([m["p"], 1 - m["p"]]), np.array([m["q"], 1 - m["q"]])
        ri, rii, _, _ = menu_regret(row, col, x, y)
        if max(ri, rii) > TOL or not (0 <= m["p"] <= 1 and 0 <= m["q"] <= 1):
            errs.append(f"mixed_nash {m}: not a Nash equilibrium (regret {max(ri, rii):.3e})")
    q = s["quantum"]
    check = q["profile_check"]
    dist = probs(e["gamma"], e["mode"], e["u1"], e["u2"])
    errs += close("profile_check payoffs", check["payoffs"], [dist @ row.ravel(), dist @ col.ravel()])
    if check["max_improvement"] < 0 or check["is_epsilon_nash"] != (check["max_improvement"] <= e["eps"]):
        errs.append(f"profile_check: inconsistent verdict {check}")
    eq = q["menu_equilibrium"]
    support = [[(w, parse_gate_name(n, e["mode"])) for w, n in eq[k]]
               for k in ("support_I", "support_II")]
    errs += menu_equilibrium("menu_equilibrium", e["gamma"], e["mode"], row, col,
                             *support, eq["payoffs"], e["eps"])
    errs += in_bounds("equilibria payoffs", _columns(header, rows, ["payoff_I"]), row)
    errs += in_bounds("equilibria payoffs", _columns(header, rows, ["payoff_II"]), col)
    want_rows = (len(s["pure_nash"]) + len(s["pareto_optimal"]) + len(s["mixed_nash"]) + 1
                 + len(eq["support_I"]) + len(eq["support_II"]))
    if len(rows) != want_rows:
        errs.append(f"equilibria.csv has {len(rows)} rows, expected {want_rows}")
    return errs


def _check_rounds(label, e, header, rows, payoff_table) -> tuple:
    """Shared per-round checks; returns (errors, payoff columns)."""
    row, col = payoff_table
    columns = dict(zip(header, zip(*rows))) if rows else {h: () for h in header}
    errs = []
    if len(rows) != e["rounds"]:
        errs.append(f"{label}: {len(rows)} rows, expected {e['rounds']} rounds")
    if not np.array_equal(np.array(columns["round"], dtype=float), np.arange(len(rows))):
        errs.append(f"{label}: round column is not 0..n-1")
    pays = np.column_stack([np.array(columns[c], dtype=float) for c in ("payoff_I", "payoff_II")])
    errs += in_bounds(f"{label} payoff_I", pays[:, 0], row)
    errs += in_bounds(f"{label} payoff_II", pays[:, 1], col)
    keys = list(zip(columns["gate_I"], columns["gate_II"]))
    pairs = dict.fromkeys(keys)
    off_menu = [k for k in pairs if k[0] not in e["gates_I"] or k[1] not in e["gates_II"]]
    if off_menu:
        return errs + [f"{label}: gate pairs {off_menu[:3]} are not on the agents' menus"], pays
    index = {k: n for n, k in enumerate(pairs)}
    ids = np.fromiter((index[k] for k in keys), dtype=np.int64, count=len(keys))
    dists = np.array([noisy_probs(e["gamma"], e["mode"], e["gates_I"][g1], e["gates_II"][g2],
                                  *e["noise"]) for g1, g2 in pairs]).reshape(-1, 4)
    cells = np.stack([row.ravel(), col.ravel()], axis=1)
    if e["sampled"]:
        want = cells[np.array(columns["sampled_outcome"], dtype=np.int64)]
    elif set(columns["sampled_outcome"]) - {""}:
        return errs + [f"{label}: sampled_outcome set while sampling is off"], pays
    else:
        want = (dists @ cells)[ids]
    errs += close(f"{label} payoffs", pays, want)
    if "p00" in header:
        got = np.column_stack([np.array(columns[c], dtype=float) for c in ("p00", "p01", "p10", "p11")])
        errs += distribution(f"{label} distribution", got)
        errs += close(f"{label} distribution", got, dists[ids])
    return errs, pays


def _check_tournament(e, s, header, rows) -> list:
    table = GAMES[e["game"]][:2]
    if e.get("experiment") == "menu_advantage":
        errs = []
        cond = header.index("condition")
        for name, key in (("quantum", "quantum"), ("classical", "classical")):
            part = [r for r in rows if r[cond] == name]
            sub = dict(e, gates_I=e["menus"][name], gates_II=e["menus"][name])
            more, pays = _check_rounds(f"{name} rounds", sub, header, part, table)
            errs += more
            if len(part) == 0:
                continue
            errs += close(f"{key}_mean", s[f"{key}_mean"], pays.mean(axis=0))
            w = s["tail_window"]
            errs += close(f"{key}_tail_mean", s[f"{key}_tail_mean"], pays[-w:].mean(axis=0))
        if len(rows) != 2 * e["rounds"]:
            errs.append(f"menu_advantage: {len(rows)} rows, expected {2 * e['rounds']}")
        return errs
    errs, pays = _check_rounds("tournament", e, header, rows, table)
    if len(pays):
        errs += close("mean_payoffs", s["mean_payoffs"], pays.mean(axis=0))
    return errs


def _mix_probs(e) -> np.ndarray:
    total = np.zeros(4)
    for w1, u1 in e["mix_I"]:
        for w2, u2 in e["mix_II"]:
            total += w1 * w2 * noisy_probs(e["gamma"], e["mode"], u1, u2, *e["noise"])
    return total


def _check_payoff_like(e, s, header, rows) -> list:
    row, col, _ = GAMES[e["game"]]
    d = _mix_probs(e)
    errs = distribution("distribution", s["distribution"])
    errs += close("distribution", s["distribution"], d)
    errs += close("payoffs", s["payoffs"], [d @ row.ravel(), d @ col.ravel()])
    errs += in_bounds("payoff_I", s["payoffs"][0], row) + in_bounds("payoff_II", s["payoffs"][1], col)
    errs += close("csv row", _columns(header, rows, ["payoff_I", "payoff_II", "p00", "p01", "p10", "p11"]),
                  [s["payoffs"] + s["distribution"]])
    return errs


def _check_sweep(e, s, header, rows) -> list:
    row, col, _ = GAMES[e["game"]]
    data = _columns(header, rows, ["gamma", "payoff_I", "payoff_II"])
    gammas = np.linspace(0, np.pi / 2, e["steps"])
    errs = close("sweep gamma grid", data[:, 0], gammas)
    if errs:
        return errs
    d = np.array([probs(g, e["mode"], e["u1"], e["u2"]) for g in gammas])
    errs += close("sweep payoffs", data[:, 1:], np.stack([d @ row.ravel(), d @ col.ravel()], axis=1))
    return errs + in_bounds("sweep payoff_I", data[:, 1], row) + in_bounds("sweep payoff_II", data[:, 2], col)


def _check_correlated(e, s, header, rows) -> list:
    row, col, _ = GAMES[e["game"]]
    mu = np.array(s["mu"]).reshape(2, 2)
    errs = distribution("mu", mu.ravel())
    for i in range(2):  # no profitable swap of a recommended row / column
        if float(mu[i] @ (row[i] - row[1 - i])) < -TOL or float(mu[:, i] @ (col[:, i] - col[:, 1 - i])) < -TOL:
            errs.append(f"mu={s['mu']} violates a correlated-equilibrium constraint")
    want = [float(mu.ravel() @ row.ravel()), float(mu.ravel() @ col.ravel())]
    errs += close("correlated payoffs", s["payoffs"], want)
    errs += close("welfare", s["welfare"], sum(want))
    if s["is_correlated_equilibrium"] is not True:
        errs.append("report does not certify its own correlated equilibrium")
    return errs + close("correlated csv mu", _columns(header, rows, ["mu"])[:, 0], mu.ravel())


def _check_landscape(e, s, header, rows) -> list:
    row, _, _ = GAMES[e["game"]]
    data = _columns(header, rows, ["theta", "phi", "payoff"])
    axis = np.linspace(0, np.pi / 2, e["resolution"])
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    errs = close("landscape grid", data[:, :2], grid)
    if errs:
        return errs
    c, sn = np.cos(grid[:, 0]), np.sin(grid[:, 0])
    u = np.zeros((len(grid), 2, 2), dtype=complex)
    u[:, 0, 0], u[:, 0, 1] = np.exp(1j * grid[:, 1]) * c, sn
    u[:, 1, 0], u[:, 1, 1] = -sn, np.exp(-1j * grid[:, 1]) * c
    want = probs(e["gamma"], e["mode"], u, e["u2"]) @ row.ravel()
    errs += close("landscape payoffs", data[:, 2], want)
    errs += close("max_payoff", s["max_payoff"], want.max())
    return errs + in_bounds("landscape payoffs", data[:, 2], row)


def _check_advantage(e, s, header, rows) -> list:
    row, _, _ = GAMES[e["game"]]
    errs = in_bounds("payoff_noiseless", s["payoff_noiseless"], row)
    errs += in_bounds("payoff_full_noise", s["payoff_full_noise"], row)
    if e["kind"] == "two_qubit_depolarizing":  # p=1 leaves the maximally mixed state
        errs += close("payoff_full_noise", s["payoff_full_noise"], row.mean())
    if s["found"]:
        p = s["p_star"]
        if p is None or not 0 <= p <= 1:
            errs.append(f"p_star={p!r} outside [0, 1]")
        elif p > 0 and not (s["payoff_noiseless"] > s["limit"] >= s["payoff_full_noise"] - TOL):
            errs.append("threshold reported although the payoff does not cross the limit")
    elif s["p_star"] is not None:
        errs.append("p_star given although no threshold was found")
    return errs


_CHECKS = {
    "equilibria": _check_equilibria,
    "tournament": _check_tournament,
    "payoff": _check_payoff_like,
    "noise": _check_payoff_like,
    "sweep": _check_sweep,
    "correlated": _check_correlated,
    "landscape": _check_landscape,
    "advantage": _check_advantage,
}
