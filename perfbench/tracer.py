"""Spans around the public functions of the `pompeiu` modules, recorded from
outside the program.

`Tracer.install` replaces each traced function by a wrapper in every
`pompeiu` module that holds it (so both `pompeiu.cli.pompeiu_oracle` and
`pompeiu.finite_pompeiu.pompeiu_oracle` are traced), and each traced method
on its class. A span records its name, start, end, parent span and the index
of the CLI command it belongs to. Self time is a span's duration minus the
durations of its child spans. `uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array

# (module, attribute, span name); "Class.method" patches the class.
TRACED = [
    ("pompeiu.cli", "main", "cli"),
    ("pompeiu.groups", "load_group_spec", "groups.load_group_spec"),
    ("pompeiu.groups", "CosetSpace.__init__", "groups.coset_space"),
    ("pompeiu.groups", "CosetSpace._compute_double_cosets", "groups.coset_space"),
    ("pompeiu.hecke", "hecke_structure", "hecke.hecke_structure"),
    ("pompeiu.hecke", "spherical_functions", "hecke.spherical_functions"),
    ("pompeiu.hecke", "check_spherical", "hecke.check_spherical"),
    ("pompeiu.exact_linalg", "char_poly", "exact_linalg.char_poly"),
    ("pompeiu.exact_linalg", "integer_roots", "exact_linalg.integer_roots"),
    ("pompeiu.exact_linalg", "nullspace", "exact_linalg.nullspace"),
    ("pompeiu.finite_pompeiu", "pompeiu_oracle", "finite_pompeiu.oracle"),
    ("pompeiu.finite_pompeiu", "pompeiu_spectral", "finite_pompeiu.spectral"),
    ("pompeiu.finite_pompeiu", "pompeiu_convolution", "finite_pompeiu.convolution"),
    ("pompeiu.finite_pompeiu", "enumerate_all", "finite_pompeiu.enumerate_all"),
    ("pompeiu.euclidean", "euclid_decide", "euclidean.euclid_decide"),
    ("pompeiu.euclidean", "complex_sphere_vanishes", "euclidean.complex_sphere_vanishes"),
    ("pompeiu.euclidean", "fourier_laplace", "euclidean.fourier_laplace"),
    ("pompeiu.euclidean", "exp_divided_difference", "euclidean.exp_divided_difference"),
    ("pompeiu.euclidean", "find_failure_lambdas", "euclidean.find_failure_lambdas"),
    ("pompeiu.euclidean", "radial_profile", "euclidean.radial_profile"),
    ("pompeiu.euclidean", "convolution_test", "euclidean.convolution_test"),
    ("pompeiu.quadrature", "integrate_over", "quadrature.integrate_over"),
    ("pompeiu.shapes", "Ball.quad_nodes", "shapes.quad_nodes"),
    ("pompeiu.shapes", "Annulus.quad_nodes", "shapes.quad_nodes"),
    ("pompeiu.shapes", "Polytope.quad_nodes", "shapes.quad_nodes"),
    ("pompeiu.shapes", "DisjointUnion.quad_nodes", "shapes.quad_nodes"),
    ("pompeiu.bessel", "besselj0", "bessel.besselj0"),
    ("pompeiu.bessel", "j1_over_z", "bessel.j1_over_z"),
    ("pompeiu.bessel", "sinc", "bessel.sinc"),
    ("pompeiu.bessel", "ball3_profile", "bessel.ball3_profile"),
]

# Per-layer metrics: (name, unit, kind, span or counter). Sums are divided
# by the traced rounds, so they compare across runs of different length.
SELF, CALLS, COUNT, RATIO, MAX = "self", "calls", "count", "ratio", "max"
METRICS = [
    ("cli.self_s", "s/round", SELF, "cli"),
    ("groups.load_group_spec_s", "s/round", SELF, "groups.load_group_spec"),
    ("groups.coset_space_s", "s/round", SELF, "groups.coset_space"),
    ("hecke.hecke_structure_s", "s/round", SELF, "hecke.hecke_structure"),
    ("hecke.spherical_functions_s", "s/round", SELF, "hecke.spherical_functions"),
    ("hecke.spherical_functions_calls", "calls/round", CALLS, "hecke.spherical_functions"),
    ("hecke.check_spherical_s", "s/round", SELF, "hecke.check_spherical"),
    ("hecke.check_spherical_calls", "calls/round", CALLS, "hecke.check_spherical"),
    ("hecke.exact_spherical_ratio", "ratio", RATIO, ("exact_spaces", "spaces")),
    ("exact_linalg.char_poly_s", "s/round", SELF, "exact_linalg.char_poly"),
    ("exact_linalg.char_poly_calls", "calls/round", CALLS, "exact_linalg.char_poly"),
    ("exact_linalg.integer_roots_s", "s/round", SELF, "exact_linalg.integer_roots"),
    ("exact_linalg.integer_roots_hit_ratio", "ratio", RATIO,
     ("integer_roots_hits", "exact_linalg.integer_roots")),
    ("exact_linalg.nullspace_s", "s/round", SELF, "exact_linalg.nullspace"),
    ("exact_linalg.nullspace_calls", "calls/round", CALLS, "exact_linalg.nullspace"),
    ("finite_pompeiu.oracle_s", "s/round", SELF, "finite_pompeiu.oracle"),
    ("finite_pompeiu.oracle_calls", "calls/round", CALLS, "finite_pompeiu.oracle"),
    ("finite_pompeiu.oracle_kernel_calls", "calls/round", COUNT, "oracle_kernel"),
    ("finite_pompeiu.spectral_s", "s/round", SELF, "finite_pompeiu.spectral"),
    ("finite_pompeiu.convolution_s", "s/round", SELF, "finite_pompeiu.convolution"),
    ("finite_pompeiu.enumerate_all_self_s", "s/round", SELF, "finite_pompeiu.enumerate_all"),
    ("euclidean.euclid_decide_self_s", "s/round", SELF, "euclidean.euclid_decide"),
    ("euclidean.complex_sphere_vanishes_s", "s/round", SELF, "euclidean.complex_sphere_vanishes"),
    ("euclidean.complex_sphere_vanishes_calls", "calls/round", CALLS,
     "euclidean.complex_sphere_vanishes"),
    ("euclidean.fourier_laplace_s", "s/round", SELF, "euclidean.fourier_laplace"),
    ("euclidean.fourier_laplace_calls", "calls/round", CALLS, "euclidean.fourier_laplace"),
    ("euclidean.exp_divided_difference_s", "s/round", SELF, "euclidean.exp_divided_difference"),
    ("euclidean.exp_divided_difference_calls", "calls/round", CALLS,
     "euclidean.exp_divided_difference"),
    ("euclidean.find_failure_lambdas_s", "s/round", SELF, "euclidean.find_failure_lambdas"),
    ("euclidean.radial_profile_s", "s/round", SELF, "euclidean.radial_profile"),
    ("euclidean.radial_profile_calls", "calls/round", CALLS, "euclidean.radial_profile"),
    ("euclidean.convolution_test_s", "s/round", SELF, "euclidean.convolution_test"),
    ("euclidean.convolution_test_calls", "calls/round", CALLS, "euclidean.convolution_test"),
    ("quadrature.integrate_over_s", "s/round", SELF, "quadrature.integrate_over"),
    ("quadrature.integrate_over_calls", "calls/round", CALLS, "quadrature.integrate_over"),
    ("quadrature.accepted_node_ratio", "ratio", RATIO, ("accepted_nodes", "evaluated_nodes")),
    ("shapes.quad_nodes_s", "s/round", SELF, "shapes.quad_nodes"),
    ("shapes.quad_nodes_calls", "calls/round", CALLS, "shapes.quad_nodes"),
    ("shapes.quad_nodes_points", "points/round", COUNT, "quad_points"),
    ("shapes.max_quad_order", "order", MAX, "quad_order"),
    ("bessel.besselj0_s", "s/round", SELF, "bessel.besselj0"),
    ("bessel.besselj0_calls", "calls/round", CALLS, "bessel.besselj0"),
    ("bessel.j1_over_z_s", "s/round", SELF, "bessel.j1_over_z"),
    ("bessel.j1_over_z_calls", "calls/round", CALLS, "bessel.j1_over_z"),
    ("bessel.sinc_s", "s/round", SELF, "bessel.sinc"),
    ("bessel.sinc_calls", "calls/round", CALLS, "bessel.sinc"),
    ("bessel.ball3_profile_s", "s/round", SELF, "bessel.ball3_profile"),
    ("bessel.ball3_profile_calls", "calls/round", CALLS, "bessel.ball3_profile"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.command_of = array("i")
        self.command = -1               # index of the CLI command running
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []    # [span index, name id, start, child time, nodes]
        self._spaces: dict[int, tuple] = {}
        self._patched: list[tuple] = []
        self.t0 = time.perf_counter()

    # -- recording --------------------------------------------------------

    def _count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn, on_exit=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_time[name] = 0.0
            self.calls[name] = 0
        nid = self._ids[name]
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.command_of.append(self.command)
            self.end.append(0.0)
            frame = [idx, nid, clock(), 0.0, []]
            self.start.append(frame[2])
            stack.append(frame)
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.end[idx] = end
                self.self_time[name] += duration - frame[3]
                self.calls[name] += 1
                if stack:
                    stack[-1][3] += duration
                if on_exit is not None:
                    on_exit(args, result, ok, frame)
        return traced

    def _spherical_exit(self, args, result, ok, frame):
        if ok and id(args[0]) not in self._spaces:
            # keep the space so that its id is not reused
            self._spaces[id(args[0])] = (args[0], all(f.exact for f in result))

    def _integer_roots_exit(self, args, result, ok, frame):
        if ok and result is not None:
            self._count("integer_roots_hits")

    def _oracle_exit(self, args, result, ok, frame):
        if ok and result.verdict == "NotPompeiu":
            self._count("oracle_kernel")

    def _integrate_exit(self, args, result, ok, frame):
        nodes = frame[4]
        self._count("evaluated_nodes", sum(nodes))
        if ok:
            self._count("accepted_nodes", sum(nodes[-2:]))

    def _quad_nodes_exit(self, args, result, ok, frame):
        parent = self._stack[-1] if self._stack else None
        if not ok or (parent is not None and self.names[parent[1]] == "shapes.quad_nodes"):
            return          # a union's member: its points are counted by the union
        points = len(result[0])
        self._count("quad_points", points)
        self.counters["quad_order"] = max(self.counters.get("quad_order", 0), args[1])
        if parent is not None and self.names[parent[1]] == "quadrature.integrate_over":
            parent[4].append(points)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        hooks = {"hecke.spherical_functions": self._spherical_exit,
                 "exact_linalg.integer_roots": self._integer_roots_exit,
                 "finite_pompeiu.oracle": self._oracle_exit,
                 "quadrature.integrate_over": self._integrate_exit,
                 "shapes.quad_nodes": self._quad_nodes_exit}
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            wrap = functools.partial(self._wrap, name, on_exit=hooks.get(name))
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, wrap(orig))
                continue
            orig = getattr(module, attr)
            traced = wrap(orig)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "pompeiu" and not mod_name.startswith("pompeiu."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def top_level_seconds(self) -> float:
        """Time inside spans that have no parent span."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                   if p < 0)

    def metrics(self, rounds: int) -> dict:
        spaces = [exact for _, exact in self._spaces.values()]
        counts = dict(self.counters, spaces=len(spaces), exact_spaces=sum(spaces))
        out = {}
        for metric, unit, kind, key in METRICS:
            if kind == SELF:
                value = self.self_time.get(key, 0.0) / rounds
            elif kind == CALLS:
                value = self.calls.get(key, 0) / rounds
            elif kind == COUNT:
                value = counts.get(key, 0) / rounds
            elif kind == MAX:
                value = counts.get(key, 0)
            else:
                num, den = key
                den = counts.get(den, self.calls.get(den, 0))
                value = counts.get(num, 0) / den if den else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span and line, gzip-compressed; times are
        seconds since the tracer was made."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name_id[i]],
                    "start": round(self.start[i] - self.t0, 9),
                    "end": round(self.end[i] - self.t0, 9),
                    "parent": self.parent[i], "command": self.command_of[i]},
                    separators=(",", ":")) + "\n")
