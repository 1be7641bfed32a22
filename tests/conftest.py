"""Shared fixture-corpus loaders, the finder of other Pythons and the
homology oracle for the test suite."""

import importlib.util
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from logaffine.fileio import (
    parse_bundle_file,
    parse_fan_file,
    parse_polytope_file,
    parse_welding_file,
)
from logaffine.polytopes import build_polytope
from logaffine.welding import build_welded_space

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PERFBENCH = FIXTURES.parent / "perfbench"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


# An 11 x 8 rectangle on quadrants.weld whose constraint constants (23
# to 54) exceed the cutoff -ln(1e-9), about 21, at the default excision.
FAR_RECTANGLE = """logaffine polytope 1
welding quadrants.weld
constraint 1.e = (-1, 0) + 34
constraint 1.n = (0, -1) - 46
constraint 2.n = (0, -1) - 46
constraint 2.w = (-1, 0) + 23
constraint 3.s = (0, -1) - 54
constraint 3.w = (-1, 0) + 23
constraint 4.e = (-1, 0) + 34
constraint 4.s = (0, -1) - 54
group E = [1.e 4.e]
group N = [1.n 2.n]
group S = [3.s 4.s]
group W = [2.w 3.w]
orientation +
"""


def benchmark_module(name: str):
    """A module of ``perfbench/``, registered under its own name because
    ``oracles`` imports ``generators`` by that name."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@lru_cache(maxsize=None)
def load_fan(name: str):
    return parse_fan_file(fixture_path(name))


@lru_cache(maxsize=None)
def load_welding(name: str):
    return parse_welding_file(fixture_path(name))


@lru_cache(maxsize=None)
def load_space(name: str):
    return build_welded_space(load_welding(name).spec)


@lru_cache(maxsize=None)
def load_polytope(name: str):
    return parse_polytope_file(fixture_path(name))


@lru_cache(maxsize=None)
def load_bundle(name: str):
    return parse_bundle_file(fixture_path(name))


@lru_cache(maxsize=None)
def load_built_polytope(name: str):
    pf = load_polytope(name)
    return build_polytope(build_welded_space(pf.spec.welding), pf.spec)


def grid_pairs(variant: str, m: int) -> list[tuple[int, str, int, str]]:
    """Face pairs ``(domain, ray, domain, ray)`` of a 2m x 2m square-fan grid.

    Domain ``(r, c)`` has id ``r * 2m + c + 1``; column neighbours share
    ray ``a`` after an even column and ``c`` after an odd one, row
    neighbours ``b`` and ``d`` the same way.  A torus wraps both ways, a
    cylinder the columns only, a disc neither; a comb lists the torus
    rows and column 0's rungs and leaves the other rungs to closure.
    """
    n = 2 * m
    wrap_rows = variant in ("torus", "comb")
    pairs = [
        (r * n + c + 1, "ac"[c % 2], r * n + (c + 1) % n + 1, "ac"[c % 2])
        for r in range(n)
        for c in range(n)
        if c + 1 < n or variant != "disc"
    ]
    pairs += [
        (r * n + c + 1, "bd"[r % 2], (r + 1) % n * n + c + 1, "bd"[r % 2])
        for c in range(1 if variant == "comb" else n)
        for r in range(n)
        if r + 1 < n or wrap_rows
    ]
    return pairs


def grid_text(variant: str, m: int) -> str:
    """The welding file of the 2m x 2m square-fan grid ``grid_pairs`` lists."""
    lines = ["logaffine welding 1", "fan S = square.fan"]
    lines += [f"domain {i} = S" for i in range(1, 4 * m * m + 1)]
    lines += [
        f"pair p{k} = {d1}.{r1} ~ {d2}.{r2}"
        for k, (d1, r1, d2, r2) in enumerate(grid_pairs(variant, m), start=1)
    ]
    return "\n".join(lines) + "\n"


def _pyenv_versions(version: str) -> list[str]:
    """The pyenv versions installed for ``version`` (``3.12.1`` for
    ``3.12``), newest first; none without pyenv."""
    if shutil.which("pyenv") is None:
        return []
    root = subprocess.run(["pyenv", "root"], capture_output=True, text=True).stdout.strip()
    installed = Path(root, "versions")
    if not root or not installed.is_dir():
        return []
    patches = [
        int(p.name[len(version) + 1 :])
        for p in installed.iterdir()
        if p.name.startswith(f"{version}.") and p.name[len(version) + 1 :].isdigit()
    ]
    return [f"{version}.{patch}" for patch in sorted(patches, reverse=True)]


def _starts(python: str, version: str, env: dict | None) -> bool:
    probe = subprocess.run(
        [python, "-I", "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        capture_output=True,
        text=True,
        env=env,
    )
    return probe.returncode == 0 and probe.stdout.strip() == version


def other_python(version: str) -> tuple[str, dict | None]:
    """``python<version>`` on the PATH and the environment it starts in;
    the test is skipped when it is missing or does not start.  A pyenv
    shim starts only a version that ``PYENV_VERSION`` or ``pyenv
    global`` selects, so a shim that does not start is retried with
    ``PYENV_VERSION`` set to each matching version installed under
    ``$(pyenv root)/versions``, newest first."""
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"no python{version} on the PATH")
    for env in [None, *(dict(os.environ, PYENV_VERSION=v) for v in _pyenv_versions(version))]:
        if _starts(python, version, env):
            return python, env
    pytest.skip(f"python{version} does not start here")


# ---------------------------------------------------------- homology oracle


def fraction_rank(matrix) -> int:
    """Exact rational rank by Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank_found = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next(
            (r for r in range(rank_found, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank_found], rows[pivot] = rows[pivot], rows[rank_found]
        lead = rows[rank_found][col]
        for r in range(len(rows)):
            if r != rank_found and rows[r][col] != 0:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank_found])]
        rank_found += 1
    return rank_found


def oracle_betti(space) -> tuple[int, ...]:
    """Betti numbers straight from incidence boundary matrices."""
    if space.dim == 1:
        points = [e.label for e in space.edges]
        segments = list(space.domain_ids)
        d1 = [[0] * len(segments) for _ in points]
        for i, e in enumerate(space.edges):
            for domain_id, label in e.faces:
                fan = space.fan(domain_id)
                ray = fan.vectors[fan.index_of_label(label)]
                d1[i][segments.index(domain_id)] += -1 if ray[0] > 0 else 1
        r1 = fraction_rank(d1)
        return (len(points) - r1, len(segments) - r1)

    vertex_index = {c.cluster_id: i for i, c in enumerate(space.clusters)}
    edge_index = {e.label: i for i, e in enumerate(space.edges)}
    face_index = {d: i for i, d in enumerate(space.domain_ids)}
    d1 = [[0] * len(edge_index) for _ in vertex_index]
    for e in space.edges:
        if e.head is not None:
            d1[vertex_index[e.head]][edge_index[e.label]] += 1
        if e.tail is not None:
            d1[vertex_index[e.tail]][edge_index[e.label]] -= 1
    d2 = [[0] * len(face_index) for _ in edge_index]
    for e in space.edges:
        for domain_id, _ in e.faces:
            d2[edge_index[e.label]][face_index[domain_id]] -= 1
    r1, r2 = fraction_rank(d1), fraction_rank(d2)
    return (
        len(vertex_index) - r1,
        len(edge_index) - r1 - r2,
        len(face_index) - r2,
    )
