"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each listed function of fracgalois with a
wrapper that counts calls and, for timed targets, keeps spans on a stack:
a function's self time is its inclusive time minus the time of the wrapped
calls made inside it.  Every binding of a function is patched, not just the
defining module's attribute: `units` binds `log_norms` from `fields`, and
`cli` and `jideal` bind `quotient_module` from `units`, so patching one site
alone would miss calls.  Methods are patched on their class, under every
name that refers to the same function (`__rmul__ = __mul__`).
"""

import sys
import time

# (module, qualified name, timed); the metric prefix is "<module>.<qualname>"
TARGETS = (
    ("cli", "main", True),
    ("jideal", "j_via_theorem", True),
    ("jideal", "j_full_cyclotomic", True),
    ("jideal", "i_f_and_regulator", True),
    ("jideal", "run_check", True),
    ("units", "unit_coordinates", True),
    ("units", "quotient_module", True),
    ("units", "sunit_group", True),
    ("units", "stark_module", True),
    ("units", "stark_residuals", True),
    ("fields", "log_norms", True),
    ("fields", "SUnit.expansion", True),
    ("lfun", "partial_zeta_all", True),
    ("lfun", "l_deriv_at_0", True),
    ("lfun", "l_value_at_0", True),
    ("lfun", "stickelberger", True),
    ("cyclo", "hurwitz_zeta_at0", True),
    # hurwitz_zeta_at0 calls the guarded helper directly, not log_gamma
    ("cyclo", "log_gamma", True),
    ("cyclo", "_log_gamma_guarded", True),
    ("cyclo", "CyclotomicNumber.__mul__", False),
    ("gring", "FiniteGModule.annihilator", True),
    ("gring", "FiniteGModule.fitting_ideal", True),
    ("gring", "FiniteGModule.ell_part", True),
    ("gring", "det_qg", True),
    ("gring", "IdealLattice.from_generators", True),
    ("gring", "IdealLattice.intersect", True),
    ("gring", "IdealLattice.scale", True),
    ("intmat", "hnf_columns", True),
    ("intmat", "kernel_basis", True),
    ("intmat", "smith_normal_form", True),
    ("intmat", "column_echelon", True),
    ("intmat", "span_contains", True),
)

LAYERS = ("cli", "jideal", "units", "fields", "lfun", "cyclo", "gring",
          "intmat")


def _max_bits(obj, depth=3):
    """Largest bit-length of the ints in obj, looking `depth` lists deep."""
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if depth == 0 or not isinstance(obj, (list, tuple)):
        return 0
    return max((_max_bits(x, depth - 1) for x in obj), default=0)


class _Stat:
    __slots__ = ("calls", "self_s", "fail", "refused", "nonzero")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.fail = 0
        self.refused = 0
        self.nonzero = 0


class Tracer:
    """Counts and self times of the TARGETS, with the intmat size probes."""

    def __init__(self):
        self.stats = {}
        self.enabled = True
        self.max_entry_bits = 0
        self.max_cells = 0
        self._children = []     # time spent in wrapped callees, per open span
        self._undo = []

    # -- probes of arguments and results, run outside every span
    def _probe_intmat(self, args, result):
        for obj in (*args, result):
            self.max_entry_bits = max(self.max_entry_bits, _max_bits(obj))
        a = args[0] if args else None
        if a and isinstance(a, (list, tuple)) and isinstance(a[0], (list, tuple)):
            self.max_cells = max(self.max_cells, len(a) * len(a[0]))

    def _probe_det(self, args, result):
        if not result.is_zero():
            self.stats["gring.det_qg"].nonzero += 1

    def _wrap(self, name, fn, timed):
        stat = self.stats.setdefault(name, _Stat())
        tracer = self
        if not timed:
            def counted(*args, **kwargs):
                if tracer.enabled:
                    stat.calls += 1
                return fn(*args, **kwargs)
            return counted
        probe = None
        if name.startswith("intmat."):
            probe = self._probe_intmat
        elif name == "gring.det_qg":
            probe = self._probe_det

        def spanned(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stat.calls += 1
            children = tracer._children
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError as exc:
                # CoordinateError is a ValueError; the minor budget too
                if type(exc).__name__ == "CoordinateError":
                    stat.fail += 1
                elif "minors" in str(exc):
                    stat.refused += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                stat.self_s += dt - children.pop()
                if children:
                    children[-1] += dt
            if probe is not None:
                # the probe's own time is charged to no layer
                t1 = time.perf_counter()
                probe(args, result)
                if children:
                    children[-1] += time.perf_counter() - t1
            return result
        return spanned

    def install(self):
        """Patch every TARGETS binding in the loaded fracgalois modules."""
        import fracgalois  # noqa: F401  (loads every submodule)
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "fracgalois" or name.startswith("fracgalois.")}
        for modname, qual, timed in TARGETS:
            name = f"{modname}.{qual}"
            home = pkg[f"fracgalois.{modname}"]
            if "." in qual:
                clsname, attr = qual.split(".")
                self._patch_method(getattr(home, clsname), attr, name, timed)
                continue
            orig = getattr(home, qual)
            wrapper = self._wrap(name, orig, timed)
            for mod in pkg.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def _patch_method(self, cls, attr, name, timed):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(name, raw.__func__, timed))
        else:
            wrapper = self._wrap(name, raw, timed)
        for key, val in list(cls.__dict__.items()):
            if val is raw:
                setattr(cls, key, wrapper)
                self._undo.append((cls, key, raw))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def counters(self):
        """Raw counters of this process, for `combine`."""
        out = {}
        for modname, qual, timed in TARGETS:
            name = f"{modname}.{qual}"
            st = self.stats[name]
            out[f"{name}.calls"] = st.calls
            if timed:
                out[f"{name}.self_s"] = st.self_s
        out["units.unit_coordinates.fail"] = \
            self.stats["units.unit_coordinates"].fail
        out["gring.FiniteGModule.fitting_ideal.refused"] = \
            self.stats["gring.FiniteGModule.fitting_ideal"].refused
        out["gring.det_qg.nonzero"] = self.stats["gring.det_qg"].nonzero
        out["intmat.max_entry_bits"] = self.max_entry_bits
        out["intmat.max_cells"] = self.max_cells
        return out


def combine(counters):
    """Per-layer metrics over several processes' counters: sums, except the
    maxima, plus each layer's total self time and the two ratios."""
    out = {}
    for c in counters:
        for key, value in c.items():
            if key.startswith("intmat.max_"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            out.get(f"{m}.{q}.self_s", 0.0)
            for m, q, timed in TARGETS if m == layer and timed)
    nonzero = out.pop("gring.det_qg.nonzero", 0)
    calls = out.get("gring.det_qg.calls", 0)
    out["gring.det_qg.nonzero_frac"] = nonzero / calls if calls else 0.0
    hits = out.pop("cyclo.bernoulli_number.hits", 0)
    lookups = hits + out.pop("cyclo.bernoulli_number.misses", 0)
    out["cyclo.bernoulli_number.hit_frac"] = hits / lookups if lookups else 0.0
    return out
