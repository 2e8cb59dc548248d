"""Synthetic seasonal multivariate time series (dataset substrate).

The paper evaluates on four real-world collections (RE, SC, INF, HFM —
Table V) plus synthetic blow-ups of them. None of those exact datasets
ship here, so this module generates *profile-matched* synthetic
equivalents: the same number of sequences (|D_SEQ| granules), a similar
series count, and injected seasonal structure (families of a seasonal
driver plus correlated responses with Contains / Overlaps / Follows
in-granule geometry, near-copies for the MI screen, weak series, and
noise). DESIGN.md documents the substitution per dataset.

Layout of a family within one coarse granule of ``m = 4`` fine steps::

    driver    [0, 2]   "1110"
    copy      [0, 2]   driver's activity with a small flip rate
    contains  [1, 2]   driver >= response
    overlaps  [1, 3]   driver ~ response
    follows   [3, 3]   driver -> response

Activity of a family is ``(h mod cycle) < window`` thinned by
``p_active``; responses additionally thin by their own ``p_active`` and
add stray activations, so support density varies and the maxPeriod /
minDensity threshold sweeps bite (Tables IX-X trends).

Raw *values* are emitted for the Spark Phase-1 path (active fine steps
~ N(ON_MEAN, 1), inactive ~ N(OFF_MEAN, 1), threshold CUT), while
``gen_symbols`` shortcuts straight to symbols for pure-Python harnesses.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

ON_MEAN, OFF_MEAN, CUT = 7.5, 1.0, 4.25

M = 4  # fine steps per coarse granule in every profile

#: in-granule [lo, hi] span per role
SHAPES = {
    "driver": (0, 2),
    "copy": (0, 2),
    "jcopy": (0, 2),  # jitter *shortens* the end -> stable Contains triple
    "contains": (1, 2),
    "overlaps": (1, 3),
    "follows": (3, 3),
    "weak": (1, 2),
    "noise": (0, 1),
}


@dataclass(frozen=True)
class SeriesSpec:
    """One synthetic series: its role, family, and stochastic knobs."""

    name: str
    kind: str  # driver | copy | contains | overlaps | follows | weak | noise
    family: str | None = None
    p_active: float = 0.9  # thinning of family activity (responses)
    flip: float = 0.0  # copy flip rate (per granule)
    p_stray: float = 0.0  # stray activation probability outside activity
    jitter: float = 0.0  # prob. of +1 end-jitter on the shape (epsilon study)


@dataclass(frozen=True)
class Family:
    """A seasonal regime: cycle length, in-cycle window, base activity."""

    name: str
    cycle: int
    window: int
    p_active: float


@dataclass
class DatasetProfile:
    """Everything needed to generate one dataset deterministically."""

    name: str
    n_granules: int
    m: int
    dist_min: int
    dist_max: int
    families: dict[str, Family]
    series: list[SeriesSpec]
    seed: int = 0

    @property
    def n_series(self) -> int:
        return len(self.series)


#: roles in one family block, most- to least-correlated with the driver.
#: drv/cpy/jcn are near-copies (NMI above mu -> survive A-STPM); con/ovl/
#: fol/wk are geometric responses with progressively thinner activity ->
#: their patterns qualify only at lenient thresholds, and their NMI sits
#: below mu, which is what drives the paper-style <100% accuracies.
_ROLES = (
    ("drv", "driver", dict()),
    ("cpy", "copy", dict(flip=0.004)),
    ("jcn", "jcopy", dict(jitter=0.1)),
    ("con", "contains", dict(p_active=0.5)),
    ("jc2", "jcopy", dict(jitter=0.12, flip=0.003)),
    ("fol", "follows", dict(p_active=0.45)),
    ("wk", "weak", dict(p_active=0.38, p_stray=0.01)),
)


def _family_block(
    families: dict[str, Family], fam: Family, prefix: str, *, n_roles: int
) -> list[SeriesSpec]:
    families[fam.name] = fam
    return [
        SeriesSpec(f"{prefix}_{suffix}", kind, fam.name, **kw)
        for suffix, kind, kw in _ROLES[:n_roles]
    ]


def profile(name: str, *, seed: int = 0) -> DatasetProfile:
    """Profile-matched synthetic equivalent of a paper dataset.

    ``re``/``sc`` are day-granule collections with distInterval [90, 270]
    (paper Table VI); ``inf``/``hfm`` use [30, 90]. Family cycles are
    chosen so the minSeason sweep {4..20} bites where geometrically
    feasible (a 1460-granule domain with >=90-granule season gaps caps
    seasons at ~15 — see EXPERIMENTS.md).
    """
    fams: dict[str, Family] = {}
    series: list[SeriesSpec] = []
    if name == "re":  # 21 series, 1460 seqs in the paper
        n_granules, dist = 1460, (90, 270)
        for fam, prefix in [
            (Family("A", 104, 12, 0.95), "wind"),
            (Family("B", 120, 25, 0.9), "solar"),
            (Family("C", 180, 45, 0.85), "load"),
        ]:
            series += _family_block(fams, fam, prefix, n_roles=6)
        series += [SeriesSpec(f"noise{i}", "noise", None, p_stray=0.1) for i in range(2)]
    elif name == "sc":  # 14 series, 1249 seqs
        n_granules, dist = 1249, (90, 270)
        for fam, prefix in [
            (Family("A", 104, 14, 0.95), "traffic"),
            (Family("B", 150, 30, 0.9), "rain"),
            (Family("C", 250, 55, 0.85), "heat"),
        ]:
            series += _family_block(fams, fam, prefix, n_roles=4)
        series += [SeriesSpec(f"noise{i}", "noise", None, p_stray=0.1) for i in range(2)]
    elif name == "inf":  # 25 series, 608 seqs
        n_granules, dist = 608, (30, 90)
        for fam, prefix in [
            (Family("A", 38, 8, 0.97), "flu"),
            (Family("B", 50, 12, 0.92), "temp"),
            (Family("C", 76, 14, 0.88), "humid"),
        ]:
            series += _family_block(fams, fam, prefix, n_roles=7)
        series += [SeriesSpec(f"noise{i}", "noise", None, p_stray=0.1) for i in range(4)]
    elif name == "hfm":  # 24 series, 730 seqs
        n_granules, dist = 730, (30, 90)
        for fam, prefix in [
            (Family("A", 42, 9, 0.97), "hfm"),
            (Family("B", 56, 13, 0.92), "temp"),
            (Family("C", 85, 16, 0.88), "wind"),
        ]:
            series += _family_block(fams, fam, prefix, n_roles=7)
        series += [SeriesSpec(f"noise{i}", "noise", None, p_stray=0.1) for i in range(3)]
    else:
        raise ValueError(f"unknown profile {name!r}")
    return DatasetProfile(
        name=name,
        n_granules=n_granules,
        m=M,
        dist_min=dist[0],
        dist_max=dist[1],
        families=fams,
        series=series,
        seed=seed,
    )


def scaled_profile(base: str, n_series: int, *, seed: int = 0) -> DatasetProfile:
    """Scalability variant of ``base`` with ``n_series`` series (Tables XI-XII).

    Extra series beyond the base are ~2/3 near-copies of the family
    drivers (retained by the MI screen) and ~1/3 noise/weak series
    (pruned); the noise share shrinks slowly with scale, mirroring the
    paper's synthetic blow-up where added series are resampled variants
    of real ones. Background "0" symbols are dropped from D_SEQ so the
    pattern space stays informative at scale.
    """
    p = profile(base, seed=seed)
    if n_series < p.n_series:
        raise ValueError(f"n_series {n_series} below base {p.n_series}")
    extra = n_series - p.n_series
    # everything the MI screen rejects counts as prunable: noise/weak plus
    # the geometric responses whose NMI sits below mu by construction
    base_prunable = sum(
        1
        for s in p.series
        if s.kind in ("noise", "weak", "contains", "follows", "overlaps")
    )
    # target overall prunable share declines slowly with scale (the
    # paper's blow-up adds mostly resampled-real, i.e. correlated, series)
    target_share = 0.40 * (max(p.n_series, 25) / n_series) ** 0.2
    n_noise = max(0, min(extra, round(target_share * n_series) - base_prunable))
    fam_names = sorted(p.families)
    series = list(p.series)
    for i in range(extra - n_noise):
        fam = fam_names[i % len(fam_names)]
        series.append(SeriesSpec(f"xcpy{i}", "copy", fam, flip=0.003))
    for i in range(n_noise):
        kind = "weak" if i % 3 == 0 else "noise"
        fam = fam_names[i % len(fam_names)] if kind == "weak" else None
        series.append(
            SeriesSpec(
                f"xnz{i}", kind, fam,
                p_active=0.5, p_stray=0.08 if kind == "noise" else 0.04,
            )
        )
    return DatasetProfile(
        name=f"{base}-{n_series}",
        n_granules=p.n_granules,
        m=p.m,
        dist_min=p.dist_min,
        dist_max=p.dist_max,
        families=p.families,
        series=series,
        seed=seed,
    )


def _rng(profile_: DatasetProfile, group: int, tag: str) -> np.random.Generator:
    # hashlib, not hash(): the builtin is salted per process, and datasets
    # must be identical across driver, executors, and pytest runs
    key = f"{profile_.name}|{profile_.seed}|{group}|{tag}".encode()
    seed = int.from_bytes(hashlib.blake2s(key, digest_size=4).digest(), "big")
    return np.random.default_rng(seed)


def _activity(p: DatasetProfile, group: int) -> dict[str, np.ndarray]:
    """Per-family boolean activity over coarse granules."""
    out = {}
    for fam in p.families.values():
        rng = _rng(p, group, f"fam:{fam.name}")
        phase = (np.arange(p.n_granules) % fam.cycle) < fam.window
        out[fam.name] = phase & (rng.random(p.n_granules) < fam.p_active)
    return out


def series_activity(p: DatasetProfile, group: int = 0) -> dict[str, np.ndarray]:
    """Boolean per-granule activity for every series (ground truth)."""
    fam_act = _activity(p, group)
    out: dict[str, np.ndarray] = {}
    for spec in p.series:
        rng = _rng(p, group, f"ser:{spec.name}")
        base = fam_act.get(spec.family, np.zeros(p.n_granules, dtype=bool))
        if spec.kind == "driver":
            act = base.copy()
        elif spec.kind in ("copy", "jcopy"):
            act = base ^ (rng.random(p.n_granules) < spec.flip)
        elif spec.kind in ("contains", "overlaps", "follows", "weak"):
            act = base & (rng.random(p.n_granules) < spec.p_active)
            if spec.p_stray:
                act |= rng.random(p.n_granules) < spec.p_stray
        else:  # noise
            act = rng.random(p.n_granules) < spec.p_stray
        out[spec.name] = act
    return out


def gen_symbols(p: DatasetProfile, group: int = 0) -> dict[str, list[str]]:
    """Fine-granularity symbol sequences ("0"/"1") for one replica group."""
    acts = series_activity(p, group)
    out: dict[str, list[str]] = {}
    for spec in p.series:
        rng = _rng(p, group, f"jit:{spec.name}")
        lo, hi = SHAPES[spec.kind]
        act = acts[spec.name]
        syms = np.zeros((p.n_granules, p.m), dtype="U1")
        syms[:] = "0"
        idx = np.nonzero(act)[0]
        jit = rng.random(len(idx)) < spec.jitter if spec.jitter else np.zeros(len(idx), bool)
        for j, h in enumerate(idx):
            if spec.kind == "jcopy":
                # shorten: keeps the Contains triple direction stable
                end = max(lo, hi - (1 if jit[j] else 0))
            else:
                end = min(hi + (1 if jit[j] else 0), p.m - 1)
            syms[h, lo : end + 1] = "1"
        out[spec.name] = syms.reshape(-1).tolist()
    return out


def gen_values_pdf(p: DatasetProfile, n_groups: int = 1) -> pd.DataFrame:
    """Raw values in long format (group, series, t, value) for Spark Phase 1."""
    frames = []
    for g in range(n_groups):
        symbols = gen_symbols(p, g)
        for name, syms in symbols.items():
            rng = _rng(p, g, f"val:{name}")
            on = np.array(syms) == "1"
            vals = np.where(
                on,
                rng.normal(ON_MEAN, 1.0, len(syms)),
                rng.normal(OFF_MEAN, 1.0, len(syms)),
            )
            frames.append(
                pd.DataFrame(
                    {
                        "group": np.int32(g),
                        "series": name,
                        "t": np.arange(len(syms), dtype=np.int64),
                        "value": vals,
                    }
                )
            )
    return pd.concat(frames, ignore_index=True)
