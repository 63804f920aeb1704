"""Every cache valcalc keeps, with what bounds it.

A long-running process must not grow without bound.  The tests read the
sources of ``valcalc`` and find every ``lru_cache(maxsize=None)`` (or
``cache``), every module-level dict or list and every dict or list an
instance keeps as an attribute; each must be listed below with its bound or
its finite key set, so that a new unbounded cache fails here until it is
bounded or listed.  Three caches keyed by a degree the input controls are
the known exceptions (ROADMAP item 3, step d).
"""

import ast
import sys
from pathlib import Path

import numpy as np

from valcalc import bodies, columns
from valcalc.columns import HODGE, LIE_REEB
from valcalc.contact import RUMIN, RUMIN_XI, rumin
from valcalc.su2 import ImDirection, z_rep
from valcalc.valuation import derivation, intrinsic_volume_rep, laplace, pairing, signature

SRC = Path(__file__).resolve().parent.parent / "src" / "valcalc"

BOUNDS = {
    # lru_cache(maxsize=None), each keyed by a finite set
    "bodies._subsets": "n <= 4 and a subset size <= n",
    "columns._group": "one table of S_(n-1) per dimension n",
    "columns._projection_norm": "n and |J| <= n",
    "columns._partners": "n and b < n",
    "columns._place": "n and an exponent field width, at most 64 per n",
    "contact._pihat": "one form per dimension n",
    "exterior._dv_projection": "the 2^n subsets J of range(n) per n",
    "exterior.alpha_form": "one form per dimension n",
    "kinematic.kinematic_tensor": "the two basis names",
    "kinematic._index_tuples": "b <= 2",
    "su2._z_tensor": "one entry",
    "su2._build_basis": "the two basis names",
    # module-level dicts and lists
    "cli.OPERATORS": "a constant table of four operators",
    "columns._BLOCKS": "keyed by (n, |I|, |J|); each block holds the monomials seen, and "
                       "its codes, sorted index and image table grow with them",
    "kinematic._VECTOR_CACHE": "VECTOR_CACHE_SIZE entries, oldest evicted first",
    "kinematic._WEIGHT_CACHE": "WEIGHT_CACHE_SIZE entries, oldest evicted first",
    "kinematic._SLOTS": "one executor per CPU at most",
    # dicts and lists kept by instances
    "columns._Block.index": "the monomials seen in the block",
    "columns._Block.keys": "the monomials seen in the block",
    "columns._Block._packed": "one array per exponent field width",
    "columns._Columns.orbits": "one source per orbit of the monomials seen, "
                               "at most one per built column",
    "columns._ColumnOperator.caches": "keyed by (n, |I|, |J|); each holds a column per "
                                      "monomial seen",
    "kinematic._Workspace.frames": "one per open frame of the workspace",
}

# keyed by a degree the input controls: ROADMAP item 3, step d
KNOWN_UNBOUNDED = {"bodies._monomials", "bodies._lowering", "bodies._raising"}

CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "deque"}


def _is_container(node) -> bool:
    if isinstance(node, CONTAINERS):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in CONTAINER_CALLS)


def _unbounded_lru(decorator) -> bool:
    """Whether a decorator is ``cache`` or ``lru_cache`` with maxsize None."""
    name = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False
    size = [k.value for k in decorator.keywords if k.arg == "maxsize"] + decorator.args[:1]
    return bool(size) and isinstance(size[0], ast.Constant) and size[0].value is None


def _targets(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        yield from target.elts if isinstance(target, ast.Tuple) else (target,)


def found_caches() -> set:
    """module.name of every unbounded lru_cache and every module-level dict or
    list, and module.Class.name of every dict or list kept on self."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                    and _is_container(node.value):
                found |= {f"{module}.{t.id}" for t in _targets(node) if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    map(_unbounded_lru, node.decorator_list)):
                found.add(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Assign, ast.AnnAssign)) and sub.value is not None \
                            and _is_container(sub.value):
                        found |= {f"{module}.{node.name}.{t.attr}" for t in _targets(sub)
                                  if isinstance(t, ast.Attribute)
                                  and isinstance(t.value, ast.Name) and t.value.id == "self"}
    return found


def test_every_cache_is_listed():
    assert found_caches() == set(BOUNDS) | KNOWN_UNBOUNDED
    assert not set(BOUNDS) & KNOWN_UNBOUNDED


def test_the_scan_sees_a_new_unbounded_cache(tmp_path, monkeypatch):
    # a new module with each kind of cache adds every one of them
    new = tmp_path / "extra.py"
    new.write_text("from functools import cache, lru_cache\n"
                   "_TABLE = {}\n_ROWS: list = []\n"
                   "@lru_cache(maxsize=None)\ndef f(n):\n    return n\n"
                   "@lru_cache(None)\ndef g(n):\n    return n\n"
                   "@cache\ndef h(n):\n    return n\n"
                   "@lru_cache(maxsize=8)\ndef kept(n):\n    return n\n"
                   "class Store:\n    def __init__(self):\n        self.seen = dict()\n")
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    monkeypatch.setattr(sys.modules[__name__], "SRC", tmp_path)
    extra = found_caches() - set(BOUNDS) - KNOWN_UNBOUNDED
    assert extra == {"extra._TABLE", "extra._ROWS", "extra.f", "extra.g", "extra.h",
                     "extra.Store.seen"}


def test_known_exceptions_are_unbounded_lrus():
    for name in KNOWN_UNBOUNDED:
        module, fn = name.split(".")
        assert getattr({"bodies": bodies}[module], fn).cache_info().maxsize is None


def test_permutation_and_orbit_caches_follow_the_monomials_seen():
    # the exact_pairing op on two pairs of directions, then the correction
    # xi of Z_u: S_(n-1)'s tables have a size of n alone, an orbit map holds
    # at most one source per built column, and a block's image table one
    # entry per permutation and id
    vol3 = intrinsic_volume_rep(4, 3)
    for u, v in [((1, 0, 2), (0, 3, -2)), ((0, 2, 1), (3, -2, 0))]:
        zu, zv = z_rep(ImDirection.of(*u)), z_rep(ImDirection.of(*v))
        pairing(zu, zv)
        pairing(derivation(zu), vol3), pairing(zu, derivation(vol3))
        pairing(signature(zu), zv), pairing(laplace(zu), zv)
        rumin(zu.omega).xi
    assert columns._group(4).mask.shape == columns._group(4).sign.shape == (6, 4 ** 4)
    for op in (RUMIN, RUMIN_XI, HODGE, LIE_REEB):
        for cols in op.caches.values():
            assert len(cols.orbits) <= cols.count <= len(cols.src.keys)
            sources = [i for i, _ in cols.orbits.values()]
            assert len(set(sources)) == len(sources)
            assert (cols.slot[sources] >= 0).all()
    for blk in columns._BLOCKS.values():
        assert blk._images.shape[1] <= len(blk.keys)
        assert blk._images.shape[0] == len(columns._group(blk.n).inverse)
        assert len(blk._order) <= len(blk.keys)
        assert np.all(np.diff(blk._sorted) > 0)
