"""Span tracer that instruments bmtl from the outside.

`Tracer.install()` replaces each traced public function with a wrapper under
every name its callers look it up by: the defining module, and every bmtl
module that brought it in with `from .x import name`.  Methods are wrapped on
their class; the numpy.fft entry points are wrapped on `numpy.fft`.  Nothing
under `src/` changes; `uninstall()` puts the originals back.

Each wrapped call records a span (id, name, start, end, parent id).  Spans stay
in memory and are written out as JSON lines when the run ends.  Self time of a
span is its duration minus the durations of its direct children (calls are
sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

import numpy as np

#: traced functions: (defining module, qualified name inside it)
TRACED = (
    ("spaces", "tl_norm"), ("spaces", "seq_norm"), ("spaces", "bm_array_norm"),
    ("spaces", "peetre_norm"), ("spaces", "lusin_norm"), ("spaces", "glambda_norm"),
    ("spaces", "approx_norm"),
    ("dyadic", "cube_sums"),
    ("weights", "reducing_operators"), ("weights", "ap_characteristic"),
    ("weights", "ap_dimensions"), ("weights", "doubling_exponent"),
    ("weights", "sandwich_constants"), ("weights", "waq_integrability"),
    ("weights", "strong_doubling_constant"), ("weights", "diagnose"),
    ("weights", "MatrixWeight.power"),
    ("coeff", "phi_transform"), ("coeff", "phi_synthesis"),
    ("coeff", "ad_random_operator"), ("coeff", "ad_apply"),
    ("coeffseq", "CoeffSequence.level_array"),
    ("wavelets", "wavelet_analyze"), ("wavelets", "wavelet_synthesize"),
    ("fieldio", "write_coeffs"), ("fieldio", "read_coeffs"),
    ("operators", "psdo_apply"),
    ("harness", "run_experiment"), ("harness", "four_norms"), ("harness", "emit_report"),
)

#: numpy.fft entry points; all are reported together under the span name "fft"
FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfftn", "irfftn")

#: work counters filled by the wrappers; each repeats exactly for fixed inputs
COUNTERS = ("fft.points", "fft.inverse_calls", "coeffseq.entries", "coeff.ad_entries",
            "fieldio.bytes")

BMTL_MODULES = ("grid", "fields", "dyadic", "coeffseq", "lpa", "weights", "spaces",
                "coeff", "wavelets", "operators", "fieldio", "harness", "cli")


def traced_names() -> list:
    """Span names, in the order metrics are reported."""
    return ["fft"] + [f"{mod}.{qual}" for mod, qual in TRACED]


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id or None)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._next_id = 0
        self._restore = []       # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, start, end, parent))
            if count is not None:
                count(tracer.counters, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"bmtl.{m}") for m in BMTL_MODULES}
        for mod, qual in TRACED:
            name = f"{mod}.{qual}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mods[mod], cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth], _HOOKS.get(name)))
                continue
            original = getattr(mods[mod], qual)
            wrapped = self._wrap(name, original, _HOOKS.get(name))
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, attr, wrapped)
        for entry in FFT_ENTRY_POINTS:
            count = _count_inverse_fft if entry.startswith("i") else _count_fft
            self._patch(np.fft, entry, self._wrap("fft", getattr(np.fft, entry), count))
        # every CoeffSequence, whoever builds it, passes through __post_init__
        cs = mods["coeffseq"].CoeffSequence
        post = cs.__post_init__

        def counted_post_init(seq):
            post(seq)
            self.counters["coeffseq.entries"] += len(seq.entries)

        self._patch(cs, "__post_init__", counted_post_init)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def _child_time(self) -> dict:
        """{span id: summed duration of its direct children}."""
        child_time = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        return child_time

    def layer_totals(self) -> dict:
        """{span name: (calls, self seconds)} over all recorded spans."""
        child_time = self._child_time()
        totals = {name: [0, 0.0] for name in traced_names()}
        for sid, name, start, end, _ in self.spans:
            t = totals[name]
            t[0] += 1
            t[1] += (end - start) - child_time.get(sid, 0.0)
        return {k: tuple(v) for k, v in totals.items()}

    def write_spans(self, fh, run_label: str):
        """One JSON line per span: run, id, name, start, end, parent, self_s."""
        child_time = self._child_time()
        for sid, name, start, end, parent in sorted(self.spans):
            fh.write(json.dumps({
                "run": run_label, "id": sid, "name": name, "start": start,
                "end": end, "parent": parent,
                "self_s": (end - start) - child_time.get(sid, 0.0),
            }) + "\n")


# -- work counters ---------------------------------------------------------


def _count_fft(counters, args, kwargs, out):
    counters["fft.points"] += int(np.size(args[0] if args else kwargs["a"]))


def _count_inverse_fft(counters, args, kwargs, out):
    _count_fft(counters, args, kwargs, out)
    counters["fft.inverse_calls"] += 1


def _count_ad_apply(counters, args, kwargs, out):
    counters["coeff.ad_entries"] += len(args[0] if args else kwargs["entries"])


def _count_file_bytes(counters, args, kwargs, out):
    counters["fieldio.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


_HOOKS = {
    "coeff.ad_apply": _count_ad_apply,
    "fieldio.write_coeffs": _count_file_bytes,
    "fieldio.read_coeffs": _count_file_bytes,
}
