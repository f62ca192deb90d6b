"""Per-op deadline and call tracing, installed from the benchmark's side.

The program is not modified.  For a traced op, every function named in
TARGETS is replaced by a wrapper: the name is rebound in the module that
defines it and in every module that imported it with `from .x import f`,
methods are patched on their class, and third-party entry points
(`sympy.factorint`, `sympy.nextprime`, `mpmath.polyroots`) are patched on
the third-party module, so only the program's own call sites are counted.

Every wrapper keeps aggregated counters (calls, total time, self time).
Stage functions additionally record a span (op id, name, start, end,
parent span) in memory; hot kernels do not, so a traced run holds a few
spans per op rather than millions.  Self time is a frame's duration minus
the time of the frames opened inside it.  Metrics are reported per op.
"""

from __future__ import annotations

import importlib
import signal
import time
import traceback

# The modules of the program; each is one layer.
LAYERS = ("cli", "exact", "pencil", "galois", "localarith", "canon",
          "selmersim", "gf2", "groupmod")

SPAN, COUNTER = "span", "counter"

# (metric prefix, module, attribute path, kind).  The metric prefix names
# the layer first; third-party entry points are their own pseudo-layers.
TARGETS = (
    ("cli.main", "quadpencil.cli", "main", SPAN),
    ("cli.parse_poly", "quadpencil.cli", "parse_poly", SPAN),
    ("pencil.normalize_pencil", "quadpencil.pencil", "normalize_pencil", SPAN),
    ("pencil.delta_invariant", "quadpencil.pencil", "delta_invariant", SPAN),
    ("pencil.char_poly_t", "quadpencil.pencil", "char_poly_t", COUNTER),
    ("pencil.mat_det", "quadpencil.pencil", "mat_det", COUNTER),
    ("exact.factor_q", "quadpencil.exact", "factor_q", COUNTER),
    ("exact.discriminant", "quadpencil.exact", "discriminant", COUNTER),
    ("exact.resultant", "quadpencil.exact", "resultant", COUNTER),
    ("exact.sqrt_in_etale", "quadpencil.exact", "sqrt_in_etale", SPAN),
    ("exact.cycle_type", "quadpencil.exact", "cycle_type", COUNTER),
    ("exact.RatPoly.mul", "quadpencil.exact", "RatPoly.__mul__", COUNTER),
    ("exact.RatPoly.divmod", "quadpencil.exact", "RatPoly.__divmod__", COUNTER),
    ("exact.Residue.mul", "quadpencil.exact", "Residue.__mul__", COUNTER),
    ("exact.Residue.inverse", "quadpencil.exact", "Residue.inverse", COUNTER),
    ("galois.galois_group_quintic", "quadpencil.galois", "galois_group_quintic", SPAN),
    ("galois.resolvent_sextic", "quadpencil.galois", "resolvent_sextic", SPAN),
    ("galois.frobenius_class", "quadpencil.galois", "frobenius_class", COUNTER),
    ("localarith.bad_set_s0", "quadpencil.localarith", "bad_set_s0", SPAN),
    ("localarith.real_soluble", "quadpencil.localarith", "real_soluble", SPAN),
    ("localarith.padic_soluble", "quadpencil.localarith", "padic_soluble", SPAN),
    ("localarith.find_bT", "quadpencil.localarith", "find_bT", SPAN),
    ("canon.canonical_quadrics", "quadpencil.canon", "canonical_quadrics", SPAN),
    ("canon.kummer_model", "quadpencil.canon", "kummer_model", SPAN),
    ("canon.roundtrip_invariants", "quadpencil.canon", "roundtrip_invariants", SPAN),
    ("groupmod.is_admissible", "quadpencil.groupmod", "is_admissible", COUNTER),
    ("groupmod.wreath_closure", "quadpencil.groupmod", "wreath_closure", COUNTER),
    ("selmersim.make_system", "quadpencil.selmersim", "make_system", COUNTER),
    ("selmersim.verify_pt_duality", "quadpencil.selmersim", "verify_pt_duality", COUNTER),
    ("selmersim.twist_at", "quadpencil.selmersim", "twist_at", COUNTER),
    ("selmersim.find_descent_instance", "quadpencil.selmersim", "find_descent_instance", SPAN),
    ("gf2.reduce_basis", "quadpencil.gf2", "reduce_basis", COUNTER),
    ("gf2.kernel", "quadpencil.gf2", "kernel", COUNTER),
    ("sympy.factorint", "sympy", "factorint", COUNTER),
    ("sympy.nextprime", "sympy", "nextprime", COUNTER),
    ("mpmath.polyroots", "mpmath", "polyroots", COUNTER),
)

# Layer totals reported next to the per-function counters.
SELF_LAYERS = LAYERS + ("sympy", "mpmath")


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM when an op overruns its deadline.

    A BaseException, so that `except Exception` in the program or in sympy
    cannot swallow it.
    """


class Tracer:
    """Wrappers, counters and spans for traced ops; one per benchmark run."""

    def __init__(self):
        self.stats = {key: [0, 0.0, 0.0] for key, *_ in TARGETS}  # calls, total s, self s
        self.extra = {
            "galois.tschirnhausen_steps": 0,
            "exact.cycle_type.from_galois.calls": 0,
            "localarith.find_bT.primes_scanned": 0,
            "localarith.find_bT.matched": 0,
            "exact.sqrt_in_etale.decided": 0,
            "localarith.padic_soluble.decided": 0,
        }
        self.deadline_misses = {layer: 0 for layer in LAYERS}
        self.deadline_frames: list[str] = []
        self.spans: list[list] = []  # [op_id, name, start, end, parent, self_s]
        self.stack: list[list] = []  # open frames: [key, child_s, span_index]
        self.span_stack: list[int] = []
        self.open_find_bT = 0
        self.op_id = -1
        self.last_deadline = None
        self._patches = self._build_patches()

    # -- wrappers -----------------------------------------------------------

    def _post(self, key):
        extra = self.extra
        if key == "galois.galois_group_quintic":
            def post(result):
                extra["galois.tschirnhausen_steps"] += result.tschirnhausen_steps
        elif key == "exact.sqrt_in_etale":
            def post(result):
                extra["exact.sqrt_in_etale.decided"] += result.status != "undecided"
        elif key == "localarith.padic_soluble":
            def post(result):
                extra["localarith.padic_soluble.decided"] += result.verdict in ("soluble", "insoluble")
        elif key == "localarith.find_bT":
            def post(result):
                extra["localarith.find_bT.matched"] += len(result.primes)
        else:
            post = None
        return post

    def _pre(self, key):
        if key != "exact.cycle_type":
            return None
        tracer, extra = self, self.extra

        def pre():
            stack = tracer.stack
            if stack and stack[-1][0].startswith("galois."):
                extra["exact.cycle_type.from_galois.calls"] += 1
            if tracer.open_find_bT:
                extra["localarith.find_bT.primes_scanned"] += 1
        return pre

    def _wrap(self, key, fn, kind):
        tracer = self
        stack = self.stack
        stats = self.stats[key]
        perf = time.perf_counter
        pre, post = self._pre(key), self._post(key)
        is_find_bT = key == "localarith.find_bT"

        if kind == COUNTER and pre is None and post is None:
            def wrapper(*args, **kwargs):
                frame = [key, 0.0, -1]
                stack.append(frame)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dt
                    stats[0] += 1
                    stats[1] += dt
                    stats[2] += dt - frame[1]
            return wrapper

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre()
            span_idx = -1
            if kind == SPAN:
                parent = tracer.span_stack[-1] if tracer.span_stack else -1
                span_idx = len(tracer.spans)
                tracer.spans.append([tracer.op_id, key, 0.0, 0.0, parent, 0.0])
                tracer.span_stack.append(span_idx)
            if is_find_bT:
                tracer.open_find_bT += 1
            frame = [key, 0.0, span_idx]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if is_find_bT:
                    tracer.open_find_bT -= 1
                if span_idx >= 0:
                    tracer.span_stack.pop()
                    span = tracer.spans[span_idx]
                    span[2], span[3], span[5] = t0, t1, dt - frame[1]
            if post is not None:
                post(result)
            return result
        return wrapper

    def _build_patches(self):
        """(owner object, attribute, original, wrapper) for every rebinding."""
        import sys

        patches = []
        for key, modname, path, kind in TARGETS:
            mod = importlib.import_module(modname)
            if "." in path:  # a method: patch the class (and its aliases)
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(key, original, kind)
                for name, value in list(cls.__dict__.items()):
                    if value is original:
                        patches.append((cls, name, original, wrapper))
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(key, original, kind)
            if not modname.startswith("quadpencil"):
                patches.append((mod, path, original, wrapper))
                continue
            for other_name, other in list(sys.modules.items()):
                if other_name.startswith("quadpencil") and other is not None:
                    if vars(other).get(path) is original:
                        patches.append((other, path, original, wrapper))
        return patches

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        signal.signal(signal.SIGALRM, self.on_alarm)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)
        install_deadline_handler()

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op_id: int):
        self.op_id = op_id
        del self.stack[:]
        del self.span_stack[:]
        self.open_find_bT = 0

    def end_op(self):
        """Close frames left open by a deadline; their time is not counted."""
        now = time.perf_counter()
        for idx in self.span_stack:
            span = self.spans[idx]
            if span[3] == 0.0:
                span[3] = now
        del self.stack[:]
        del self.span_stack[:]
        self.open_find_bT = 0

    def innermost_layer(self):
        """(layer, innermost frame name) of the open frames, for a deadline miss."""
        inner = self.stack[-1][0] if self.stack else "cli.main"
        for key, *_ in reversed(self.stack):
            layer = key.split(".")[0]
            if layer in LAYERS:
                return layer, inner
        return "cli", inner

    def on_alarm(self, signum, frame):
        """SIGALRM handler for traced ops: note the innermost open frame
        before the exception unwinds it, then raise."""
        layer, inner = self.innermost_layer()
        self.deadline_misses[layer] += 1
        self.deadline_frames.append(inner)
        self.last_deadline = (layer, inner)
        raise DeadlineExceeded()

    # -- results ------------------------------------------------------------

    def snapshot(self):
        """A copy of the counters, to report them as they were at a pass end."""
        return ({key: list(v) for key, v in self.stats.items()}, dict(self.extra),
                dict(self.deadline_misses))

    def metrics(self, snapshot, n_ops: int) -> dict[str, float]:
        """Per-layer metrics from a snapshot that covers n_ops traced ops.

        Counts and times are per op, so a faster program, which runs more
        ops in the same seconds, does not report more work.
        """
        stats, e, misses = snapshot
        out: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in SELF_LAYERS}
        for key, (calls, _total, self_s) in stats.items():
            out[f"{key}.calls"] = calls / n_ops
            out[f"{key}.self_ms"] = self_s * 1e3 / n_ops
            layer_self[key.split(".")[0]] += self_s
        for layer, s in layer_self.items():
            out[f"{layer}.self_ms"] = s * 1e3 / n_ops
        for key in ("galois.tschirnhausen_steps", "exact.cycle_type.from_galois.calls",
                    "localarith.find_bT.primes_scanned"):
            out[key] = e[key] / n_ops
        out["localarith.find_bT.match_ratio"] = _ratio(
            e["localarith.find_bT.matched"], e["localarith.find_bT.primes_scanned"])
        out["exact.sqrt_in_etale.decided_ratio"] = _ratio(
            e["exact.sqrt_in_etale.decided"], stats["exact.sqrt_in_etale"][0])
        out["localarith.padic_soluble.decided_ratio"] = _ratio(
            e["localarith.padic_soluble.decided"], stats["localarith.padic_soluble"][0])
        for layer, n in misses.items():
            out[f"{layer}.deadline_misses"] = n / n_ops
        return out

    def dump(self, path, op_labels):
        """Write spans and counters as JSON lines."""
        import json

        with open(path, "w") as fh:
            for op_id, name, start, end, parent, self_s in self.spans:
                fh.write(json.dumps({
                    "type": "span", "op": op_id, "op_label": op_labels.get(op_id, ""),
                    "name": name, "start": start, "end": end, "parent": parent,
                    "self_ms": self_s * 1e3,
                }) + "\n")
            for key, (calls, total, self_s) in self.stats.items():
                fh.write(json.dumps({
                    "type": "counter", "name": key, "calls": calls,
                    "total_ms": total * 1e3, "self_ms": self_s * 1e3,
                }) + "\n")
            for frame in self.deadline_frames:
                fh.write(json.dumps({"type": "deadline", "innermost": frame}) + "\n")


def _ratio(num, den) -> float:
    """num / den; 0.0 when there were no attempts."""
    return num / den if den else 0.0


def _raise_deadline(signum, frame):
    raise DeadlineExceeded()


def install_deadline_handler():
    signal.signal(signal.SIGALRM, _raise_deadline)


def run_with_deadline(fn, seconds: float):
    """Call fn() under a one-shot SIGALRM timer; DeadlineExceeded escapes."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def deadline_location(exc: BaseException, src_dir: str) -> tuple[str, str]:
    """(layer, innermost function) from the traceback of a deadline miss,
    for untraced ops: the innermost frame inside the program's sources."""
    frames = [fr for fr in traceback.extract_tb(exc.__traceback__)
              if fr.name != "_raise_deadline"]
    inner = frames[-1].name if frames else "?"
    for fr in reversed(frames):
        if fr.filename.startswith(src_dir):
            module = fr.filename[len(src_dir):].lstrip("/").split("/")[-1][:-3]
            if module in LAYERS:
                return module, inner
    return "cli", inner
