"""The benchmark suite: synthetic stand-ins for the paper's 17 programs.

Each benchmark in the paper's Tables 1 and 2 gets a :class:`BenchmarkSpec`
pairing a :class:`~repro.workloads.program.WorkloadConfig` with the
published workload statistics.  Structural statistics (active-site
quantiles, virtual-call fraction, instructions and conditionals per
indirect branch, text-segment size derived from lines of code) are taken
directly from the paper; the *behavioural* knobs (Markov concentration,
repeat probability, switch noise, override probability...) were calibrated
so that each synthetic program lands near its published ideal-BTB
misprediction rate and unconstrained-two-level floor (Table A-1), which is
what makes the reproduced figures match the paper's in shape.

Trace lengths are scaled: the paper simulates up to six million indirect
branches per program, which is impractical in pure Python.  Default traces
are ``~2%`` of the paper's, clamped to [30k, 80k] events, and the
``REPRO_TRACE_SCALE`` environment variable (or an explicit ``scale``
argument) multiplies all of them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from .program import WorkloadConfig

#: Environment variable scaling every trace length multiplicatively.
SCALE_ENV_VAR = "REPRO_TRACE_SCALE"

#: Default fraction of the paper's trace length that we simulate.
DEFAULT_TRACE_FRACTION = 0.02

#: Bounds applied to the scaled default trace length.
MIN_DEFAULT_EVENTS = 30_000
MAX_DEFAULT_EVENTS = 80_000


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark: its synthetic model plus the paper's published stats."""

    config: WorkloadConfig
    language: str
    lines_of_code: int
    paper_branches: int
    paper_instr_per_indirect: float
    paper_cond_per_indirect: float
    paper_virtual_fraction: Optional[float]
    paper_site_quantiles: Tuple[Tuple[float, int], ...]
    description: str = ""

    @property
    def name(self) -> str:
        return self.config.name


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power


def _default_events(paper_branches: int) -> int:
    scaled = int(paper_branches * DEFAULT_TRACE_FRACTION)
    return max(MIN_DEFAULT_EVENTS, min(MAX_DEFAULT_EVENTS, scaled))


def _text_size(lines_of_code: int) -> int:
    """Rough text-segment size: ~24 bytes of code per source line."""
    return _next_power_of_two(max(1 << 16, lines_of_code * 24))


def _benchmark(
    name: str,
    language: str,
    lines_of_code: int,
    paper_branches: int,
    instr_per_indirect: float,
    cond_per_indirect: float,
    paper_virtual: Optional[float],
    quantiles: Tuple[int, int, int, int],
    description: str,
    **behaviour: object,
) -> BenchmarkSpec:
    site_quantiles = (
        (0.90, quantiles[0]),
        (0.95, quantiles[1]),
        (0.99, quantiles[2]),
        (1.00, quantiles[3]),
    )
    total_sites = quantiles[3]
    defaults = dict(
        name=name,
        events=_default_events(paper_branches),
        seed=_stable_seed(name),
        description=description,
        text_size=_text_size(lines_of_code),
        site_quantiles=site_quantiles,
        virtual_fraction=paper_virtual if paper_virtual is not None else 0.0,
        instructions_per_indirect=instr_per_indirect,
        conditionals_per_indirect=cond_per_indirect,
        flow_count=max(8, min(60, total_sites // 5)),
        num_slots=max(16, total_sites // 2),
    )
    defaults.update(behaviour)
    config = WorkloadConfig(**defaults)  # type: ignore[arg-type]
    return BenchmarkSpec(
        config=config,
        language=language,
        lines_of_code=lines_of_code,
        paper_branches=paper_branches,
        paper_instr_per_indirect=instr_per_indirect,
        paper_cond_per_indirect=cond_per_indirect,
        paper_virtual_fraction=paper_virtual,
        paper_site_quantiles=site_quantiles,
        description=description,
    )


def _stable_seed(name: str) -> int:
    """A deterministic, platform-independent seed from the benchmark name."""
    seed = 0
    for char in name:
        seed = (seed * 131 + ord(char)) % (1 << 31)
    return seed + 1998


def _build_suite() -> Dict[str, BenchmarkSpec]:
    # Behavioural knobs below were produced by the calibration harness in
    # tools/calibrate_suite.py: each benchmark is tuned so that its
    # unconstrained BTB-2bc misprediction rate and its best unconstrained
    # two-level rate land near the paper's published values (Table A-1),
    # with the noise split between deterministic alternation, random-class
    # runs, and one-item excursions chosen to also reproduce the paper's
    # BTB-vs-BTB-2bc ordering (Figure 2).
    benchmarks = [
        _benchmark(
            "idl", "C++", 13_900, 1_883_641, 47, 6, 0.93, (6, 15, 70, 543),
            "SunSoft's IDL compiler (version 1.3)",
            num_classes=16,
            active_classes=6,
            override_prob=0.35,
            mono_fraction=0.05,
            fnptr_fraction=0.01,
            cases_per_switch=8,
            targets_per_fnptr=4,
            switch_noise=0.0,
            flow_count=60,
            flow_length_mean=3.2,
            step_skip_prob=0.002,
            field_dispatch_prob=0.1,
            field_noise=0.0,
            class_flow_affinity=0.998,
            repeat_prob=0.000279,
            stable_run_mean=16.0,
            segment_noise=0.0,
            loop_count=4,
            loop_segments=5,
            loop_repeat_prob=0.995,
            class_noise=0.0,
            class_zipf=1.6,
            phase_length_items=25000,
        ),
        _benchmark(
            "jhm", "C++", 15_000, 6_000_000, 47, 5, 0.94, (11, 16, 34, 155),
            "Java High-level Class Modifier: 6-12M",
            num_classes=26,
            active_classes=10,
            override_prob=0.8,
            mono_fraction=0.03,
            fnptr_fraction=0.01,
            cases_per_switch=8,
            targets_per_fnptr=4,
            switch_noise=0.034964,
            flow_count=31,
            flow_length_mean=3.6,
            step_skip_prob=0.005,
            field_dispatch_prob=0.45,
            field_noise=0.174817,
            class_flow_affinity=0.99,
            repeat_prob=0.965184,
            stable_run_mean=16.0,
            segment_noise=0.078667,
            loop_count=4,
            loop_segments=6,
            loop_repeat_prob=0.97,
            class_noise=0.052444,
            class_zipf=1.8,
            phase_length_items=2500,
        ),
        _benchmark(
            "self", "C++", 76_900, 1_000_000, 56, 7, 0.76, (309, 462, 848, 1855),
            "Self-93 VM: 5-6M",
            num_classes=64,
            active_classes=28,
            override_prob=0.85,
            mono_fraction=0.08,
            fnptr_fraction=0.05,
            cases_per_switch=8,
            targets_per_fnptr=4,
            switch_noise=0.007913,
            flow_count=60,
            flow_length_mean=6.0,
            step_skip_prob=0.005,
            field_dispatch_prob=0.3,
            field_noise=0.018989,
            class_flow_affinity=0.99,
            repeat_prob=0.960954,
            stable_run_mean=16.0,
            segment_noise=0.009496,
            loop_count=6,
            loop_segments=8,
            loop_repeat_prob=0.97,
            class_noise=0.005539,
            class_zipf=1.3,
            phase_length_items=2500,
        ),
        _benchmark(
            "troff", "C++", 19_200, 1_110_592, 90, 13, 0.74, (19, 32, 61, 161),
            "GNU groff version 1.09",
            num_classes=24,
            active_classes=10,
            override_prob=0.7,
            mono_fraction=0.1,
            fnptr_fraction=0.04,
            cases_per_switch=8,
            targets_per_fnptr=4,
            switch_noise=0.031518,
            flow_count=32,
            flow_length_mean=4.0,
            step_skip_prob=0.005,
            field_dispatch_prob=0.4,
            field_noise=0.189103,
            class_flow_affinity=0.99,
            repeat_prob=0.965184,
            stable_run_mean=16.0,
            segment_noise=0.061462,
            loop_count=4,
            loop_segments=6,
            loop_repeat_prob=0.97,
            class_noise=0.031518,
            class_zipf=1.4,
            phase_length_items=3000,
        ),
        _benchmark(
            "lcom", "C++", 14_100, 1_737_751, 97, 10, 0.60, (8, 17, 87, 328),
            "compiler for hardware description language",
            num_classes=20,
            active_classes=8,
            override_prob=0.45,
            mono_fraction=0.2,
            fnptr_fraction=0.05,
            cases_per_switch=8,
            targets_per_fnptr=4,
            switch_noise=0.001092,
            flow_count=60,
            flow_length_mean=3.6,
            step_skip_prob=0.002,
            field_dispatch_prob=0.15,
            field_noise=0.001747,
            class_flow_affinity=0.998,
            repeat_prob=0.131628,
            stable_run_mean=16.0,
            segment_noise=0.000218,
            loop_count=4,
            loop_segments=6,
            loop_repeat_prob=0.995,
            class_noise=0.000438,
            class_zipf=1.5,
            phase_length_items=15000,
        ),
        _benchmark(
            "porky", "C++", 22_900, 5_392_890, 138, 19, 0.71, (35, 51, 89, 285),
            "SUIF 1.0 scalar optimizer",
            num_classes=30,
            active_classes=12,
            override_prob=0.75,
            mono_fraction=0.08,
            fnptr_fraction=0.05,
            cases_per_switch=8,
            targets_per_fnptr=4,
            switch_noise=0.007041,
            flow_count=57,
            flow_length_mean=4.0,
            step_skip_prob=0.005,
            field_dispatch_prob=0.3,
            field_noise=0.017589,
            class_flow_affinity=0.99,
            repeat_prob=0.18228,
            stable_run_mean=16.0,
            segment_noise=0.027421,
            loop_count=4,
            loop_segments=6,
            loop_repeat_prob=0.97,
            class_noise=0.002808,
            class_zipf=1.4,
            phase_length_items=3000,
        ),
        _benchmark(
            "ixx", "C++", 11_600, 212_035, 139, 18, 0.47, (31, 46, 91, 203),
            "IDL parser, part of the Fresco X11R6 library",
            num_classes=28,
            active_classes=12,
            override_prob=0.85,
            mono_fraction=0.06,
            fnptr_fraction=0.1,
            cases_per_switch=8,
            targets_per_fnptr=4,
            switch_noise=0.008511,
            flow_count=16,
            flow_length_mean=3.7,
            step_skip_prob=0.005,
            field_dispatch_prob=0.25,
            field_noise=0.017009,
            class_flow_affinity=0.99,
            repeat_prob=0.048869,
            stable_run_mean=16.0,
            segment_noise=0.007932,
            loop_count=4,
            loop_segments=6,
            loop_repeat_prob=0.97,
            class_noise=0.003411,
            class_zipf=1.4,
            phase_length_items=5000,
        ),
        _benchmark(
            "eqn", "C++", 8_300, 296_425, 159, 25, 0.34, (17, 23, 58, 114),
            "typesetting program for equations",
            num_classes=26,
            active_classes=12,
            override_prob=0.8,
            mono_fraction=0.08,
            fnptr_fraction=0.1,
            cases_per_switch=8,
            targets_per_fnptr=4,
            switch_noise=0.093808,
            flow_count=22,
            flow_length_mean=3.7,
            step_skip_prob=0.005,
            field_dispatch_prob=0.3,
            field_noise=0.187613,
            class_flow_affinity=0.99,
            repeat_prob=0.067188,
            stable_run_mean=16.0,
            segment_noise=0.072159,
            loop_count=4,
            loop_segments=6,
            loop_repeat_prob=0.97,
            class_noise=0.046904,
            class_zipf=1.4,
            phase_length_items=2000,
        ),
        _benchmark(
            "beta", "Beta", 72_500, 1_005_995, 188, 23, None, (37, 54, 135, 376),
            "BETA compiler",
            num_classes=30,
            active_classes=12,
            override_prob=0.8,
            mono_fraction=0.08,
            fnptr_fraction=0.05,
            cases_per_switch=8,
            targets_per_fnptr=4,
            switch_noise=0.000378,
            flow_count=60,
            flow_length_mean=3.7,
            step_skip_prob=0.002,
            field_dispatch_prob=0.15,
            field_noise=0.000754,
            class_flow_affinity=0.998,
            repeat_prob=0.26,
            stable_run_mean=16.0,
            segment_noise=0.001651,
            loop_count=4,
            loop_segments=12,
            loop_repeat_prob=0.995,
            class_noise=7.2e-05,
            class_zipf=1.4,
            phase_length_items=8000,
            virtual_fraction=0.7,
        ),
        _benchmark(
            "xlisp", "C", 4_700, 6_000_000, 69, 11, None, (3, 3, 4, 13),
            "SPEC95 lisp interpreter",
            num_classes=16,
            active_classes=8,
            override_prob=0.5,
            mono_fraction=0.15,
            fnptr_fraction=0.55,
            cases_per_switch=12,
            targets_per_fnptr=10,
            switch_noise=1.1e-05,
            flow_count=8,
            flow_length_mean=2.4,
            step_skip_prob=0.002,
            field_dispatch_prob=0.2,
            field_noise=0.0,
            class_flow_affinity=0.998,
            repeat_prob=0.095878,
            stable_run_mean=16.0,
            segment_noise=0.0,
            loop_count=3,
            loop_segments=10,
            loop_repeat_prob=0.995,
            class_noise=5e-06,
            class_zipf=1.5,
            phase_length_items=25000,
        ),
        _benchmark(
            "perl", "C", 21_400, 300_000, 113, 17, None, (6, 6, 7, 24),
            "SPEC95 perl interpreter",
            num_classes=18,
            active_classes=10,
            override_prob=0.6,
            mono_fraction=0.1,
            fnptr_fraction=0.45,
            cases_per_switch=14,
            targets_per_fnptr=8,
            switch_noise=0.0,
            flow_count=8,
            flow_length_mean=3.0,
            step_skip_prob=0.002,
            field_dispatch_prob=0.2,
            field_noise=0.0,
            class_flow_affinity=0.998,
            repeat_prob=0.06,
            stable_run_mean=16.0,
            segment_noise=0.0,
            loop_count=3,
            loop_segments=10,
            loop_repeat_prob=0.995,
            class_noise=0.0,
            class_zipf=1.4,
            phase_length_items=25000,
        ),
        _benchmark(
            "edg", "C", 114_300, 548_893, 149, 23, None, (91, 125, 186, 350),
            "EDG C++ front end",
            num_classes=32,
            active_classes=14,
            override_prob=0.6,
            mono_fraction=0.1,
            fnptr_fraction=0.35,
            cases_per_switch=10,
            targets_per_fnptr=4,
            switch_noise=0.044525,
            flow_count=14,
            flow_length_mean=3.7,
            step_skip_prob=0.005,
            field_dispatch_prob=0.2,
            field_noise=0.0,
            class_flow_affinity=0.99,
            repeat_prob=0.062882,
            stable_run_mean=16.0,
            segment_noise=0.017809,
            loop_count=4,
            loop_segments=16,
            loop_repeat_prob=0.97,
            class_noise=0.001188,
            class_zipf=1.4,
            phase_length_items=2000,
        ),
        _benchmark(
            "gcc", "C", 130_800, 864_838, 176, 31, None, (38, 56, 95, 166),
            "SPEC95 C compiler",
            num_classes=48,
            active_classes=24,
            override_prob=0.6,
            mono_fraction=0.04,
            fnptr_fraction=0.3,
            cases_per_switch=16,
            targets_per_fnptr=4,
            switch_noise=0.022725,
            flow_count=10,
            flow_length_mean=3.5,
            step_skip_prob=0.005,
            field_dispatch_prob=0.2,
            field_noise=0.0,
            class_flow_affinity=0.99,
            repeat_prob=0.000279,
            stable_run_mean=16.0,
            segment_noise=0.005901,
            loop_count=4,
            loop_segments=20,
            loop_repeat_prob=0.97,
            class_noise=0.000568,
            class_zipf=0.9,
            phase_length_items=1500,
        ),
        _benchmark(
            "m88ksim", "C", 12_200, 300_000, 1827, 233, None, (3, 4, 5, 17),
            "SPEC95 Motorola 88k simulator",
            num_classes=24,
            active_classes=14,
            override_prob=0.6,
            mono_fraction=0.05,
            fnptr_fraction=0.2,
            cases_per_switch=18,
            targets_per_fnptr=12,
            switch_noise=0.00129,
            flow_count=8,
            flow_length_mean=1.3,
            step_skip_prob=0.002,
            field_dispatch_prob=0.2,
            field_noise=0.007203,
            class_flow_affinity=0.998,
            repeat_prob=0.000279,
            stable_run_mean=16.0,
            segment_noise=0.004324,
            loop_count=3,
            loop_segments=12,
            loop_repeat_prob=0.995,
            class_noise=0.000143,
            class_zipf=0.8,
            phase_length_items=5000,
        ),
        _benchmark(
            "vortex", "C", 45_200, 3_000_000, 3480, 525, None, (5, 6, 10, 37),
            "SPEC95 object-oriented database",
            num_classes=18,
            active_classes=8,
            override_prob=0.6,
            mono_fraction=0.2,
            fnptr_fraction=0.45,
            cases_per_switch=8,
            targets_per_fnptr=4,
            switch_noise=0.067713,
            flow_count=10,
            flow_length_mean=2.8,
            step_skip_prob=0.005,
            field_dispatch_prob=0.2,
            field_noise=0.0,
            class_flow_affinity=0.99,
            repeat_prob=0.086789,
            stable_run_mean=16.0,
            segment_noise=0.081256,
            loop_count=4,
            loop_segments=6,
            loop_repeat_prob=0.97,
            class_noise=0.004837,
            class_zipf=1.3,
            phase_length_items=4000,
        ),
        _benchmark(
            "ijpeg", "C", 16_800, 32_975, 5770, 441, None, (3, 5, 7, 60),
            "SPEC95 JPEG codec",
            num_classes=10,
            active_classes=4,
            override_prob=0.6,
            mono_fraction=0.55,
            fnptr_fraction=0.35,
            cases_per_switch=4,
            targets_per_fnptr=4,
            switch_noise=0.006745,
            flow_count=8,
            flow_length_mean=2.5,
            step_skip_prob=0.002,
            field_dispatch_prob=0.2,
            field_noise=0.055233,
            class_flow_affinity=0.998,
            repeat_prob=0.925,
            stable_run_mean=24.0,
            segment_noise=0.042225,
            loop_count=4,
            loop_segments=6,
            loop_repeat_prob=0.995,
            class_noise=0.000349,
            class_zipf=2.0,
            phase_length_items=25000,
        ),
        _benchmark(
            "go", "C", 29_200, 549_656, 56_355, 7123, None, (2, 2, 5, 14),
            "SPEC95 go player",
            num_classes=14,
            active_classes=8,
            override_prob=0.6,
            mono_fraction=0.05,
            fnptr_fraction=0.25,
            cases_per_switch=12,
            targets_per_fnptr=4,
            switch_noise=0.137464,
            flow_count=6,
            flow_length_mean=1.5,
            step_skip_prob=0.005,
            field_dispatch_prob=0.2,
            field_noise=0.0,
            class_flow_affinity=0.99,
            repeat_prob=0.965184,
            stable_run_mean=16.0,
            segment_noise=0.172248,
            loop_count=4,
            loop_segments=6,
            loop_repeat_prob=0.97,
            class_noise=0.03732,
            class_zipf=1.0,
            phase_length_items=4000,
        ),
    ]
    return {spec.name: spec for spec in benchmarks}


#: All 17 benchmarks, keyed by name.
BENCHMARKS: Dict[str, BenchmarkSpec] = _build_suite()

#: Benchmark groups from the paper's Table 3.
OO_BENCHMARKS: Tuple[str, ...] = (
    "idl", "jhm", "self", "troff", "lcom", "porky", "ixx", "eqn", "beta",
)
C_BENCHMARKS: Tuple[str, ...] = ("xlisp", "perl", "edg", "gcc")
INFREQ_BENCHMARKS: Tuple[str, ...] = ("m88ksim", "vortex", "ijpeg", "go")
AVG100_BENCHMARKS: Tuple[str, ...] = ("idl", "jhm", "self", "troff", "lcom", "xlisp")
AVG200_BENCHMARKS: Tuple[str, ...] = (
    "porky", "ixx", "eqn", "beta", "perl", "edg", "gcc",
)
AVG_BENCHMARKS: Tuple[str, ...] = AVG100_BENCHMARKS + AVG200_BENCHMARKS

#: Group name -> member benchmark names (paper Table 3).
GROUPS: Dict[str, Tuple[str, ...]] = {
    "AVG": AVG_BENCHMARKS,
    "AVG-OO": OO_BENCHMARKS,
    "AVG-C": C_BENCHMARKS,
    "AVG-100": AVG100_BENCHMARKS,
    "AVG-200": AVG200_BENCHMARKS,
    "AVG-infreq": INFREQ_BENCHMARKS,
}


def trace_scale() -> float:
    """The global trace-length scale from ``REPRO_TRACE_SCALE`` (default 1)."""
    raw = os.environ.get(SCALE_ENV_VAR)
    if raw is None:
        return 1.0
    try:
        scale = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{SCALE_ENV_VAR} must be a number, got {raw!r}") from exc
    if scale <= 0:
        raise ConfigError(f"{SCALE_ENV_VAR} must be positive, got {scale}")
    return scale


def benchmark_names() -> List[str]:
    """All benchmark names, OO suite first (paper table order)."""
    return list(OO_BENCHMARKS) + list(C_BENCHMARKS) + list(INFREQ_BENCHMARKS)


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise ConfigError(
            f"unknown benchmark {name!r}; known: {', '.join(benchmark_names())}"
        ) from None


def workload_config(name: str, scale: Optional[float] = None) -> WorkloadConfig:
    """The (possibly scaled) workload config for a benchmark."""
    spec = get_benchmark(name)
    factor = trace_scale() * (scale if scale is not None else 1.0)
    if factor == 1.0:
        return spec.config
    return spec.config.scaled(factor)


def group_members(group: str) -> Tuple[str, ...]:
    try:
        return GROUPS[group]
    except KeyError:
        raise ConfigError(
            f"unknown group {group!r}; known: {', '.join(GROUPS)}"
        ) from None


def override_benchmark(name: str, **changes: object) -> BenchmarkSpec:
    """A copy of a benchmark spec with workload-config fields replaced."""
    spec = get_benchmark(name)
    return replace(spec, config=replace(spec.config, **changes))  # type: ignore[arg-type]
