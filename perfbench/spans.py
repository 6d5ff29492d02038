"""In-memory span tracing of qgames' public functions, applied from outside.

`Tracer.install()` replaces every public function defined in a qgames
module with a wrapper, in every qgames module namespace that binds it
(so `run_protocol` is traced whether it is reached through `ewl`,
`search`, `noise`, `hft`, `cli` or the package).  scipy's `minimize`
is wrapped where `search` binds it.  Each call appends one span: name,
start, end, parent span and op id, kept in flat arrays and written
out once at the end.  Layer = the module that defines the function.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

MODULES = ("qgames", "qgames.qcore", "qgames.games", "qgames.ewl", "qgames.search",
           "qgames.noise", "qgames.hft", "qgames.cli")
LAYERS = ("import", "cli", "hft", "search", "noise", "ewl", "games", "qcore")


def _extra(name, args, kwargs, result) -> float:
    """Per-span number that a per-layer metric needs from the call."""
    if name == "search.verify_eps_nash":
        return float(bool(result[0]))
    if name == "search.minimize":
        return float(result.nfev)
    if name == "hft.play_tournament":
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
        return float(cfg.rounds)
    return 0.0


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.extra = array("d")
        self.current_op = -1
        self._stack = [-1]
        self._saved = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op.append(self.current_op)
            self.extra.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.monotonic())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.monotonic()
                self._stack.pop()
            self.extra[idx] = _extra(name, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        wrappers = {}
        for mod_name in MODULES:
            mod = importlib.import_module(mod_name)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not getattr(obj, "__module__", "").startswith("qgames."):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self.wrap(f"{layer}.{obj.__name__}", obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        search = importlib.import_module("qgames.search")
        if hasattr(search, "minimize"):
            self._saved.append((search, "minimize", search.minimize))
            search.minimize = self.wrap("search.minimize", search.minimize)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def to_dict(self) -> dict:
        return {"names": self.names, "name_id": self.name_id.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "op": self.op.tolist(),
                "extra": self.extra.tolist()}


def merge(table: dict, part: dict, op: int) -> None:
    """Append a child process's spans to `table`, renumbering parents."""
    offset = len(table["start"])
    remap = []
    for name in part["names"]:
        if name not in table["names"]:
            table["names"].append(name)
        remap.append(table["names"].index(name))
    table["name_id"] += [remap[k] for k in part["name_id"]]
    table["start"] += part["start"]
    table["end"] += part["end"]
    table["parent"] += [p + offset if p >= 0 else -1 for p in part["parent"]]
    table["op"] += [op] * len(part["start"])
    table["extra"] += part["extra"]


def empty_table() -> dict:
    return {"names": [], "name_id": [], "start": [], "end": [], "parent": [], "op": [],
            "extra": []}


def dump(table: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(table, fh)


def aggregate(table: dict) -> dict:
    """Per-name calls / total (outermost) / self time, per-layer self time,
    and the counts that need a span's ancestry."""
    names, nid = table["names"], table["name_id"]
    start, end, parent, extra = table["start"], table["end"], table["parent"], table["extra"]
    n = len(start)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    # bitmask of the names on each span's ancestor chain (parents precede children)
    anc = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            anc[i] = anc[p] | (1 << nid[p])
    by_name = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": 0.0} for name in names}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in range(n):
        name = names[nid[i]]
        rec = by_name[name]
        rec["calls"] += 1
        rec["self_s"] += dur[i] - child[i]
        rec["extra"] += extra[i]
        if not anc[i] >> nid[i] & 1:
            rec["total_s"] += dur[i]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - child[i]

    def bit(name):
        return 1 << names.index(name) if name in names else 0

    def count(name, under, value=False):
        if name not in names:
            return 0.0
        k, mask = names.index(name), under
        return sum((extra[i] if value else 1.0) for i in range(n)
                   if nid[i] == k and anc[i] & mask)

    noise_bits = 0
    for name in names:
        if name.startswith("noise."):
            noise_bits |= bit(name)
    tour = bit("hft.play_tournament")
    return {
        "by_name": by_name,
        "layer_self": layer_self,
        "kernel_calls_in_tournaments": count("ewl.run_protocol", tour)
        + count("noise.run_protocol_noisy", tour),
        "protocol_calls_in_menu_eq": count("ewl.run_protocol", bit("search.mixed_quantum_equilibrium")),
        "verify_under_noise": count("search.verify_eps_nash", noise_bits),
        "verify_passed_under_noise": count("search.verify_eps_nash", noise_bits, value=True),
    }
