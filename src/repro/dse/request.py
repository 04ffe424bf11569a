"""One submission object for every sweep entry point.

:class:`SweepRequest` is the single description of "what to explore and
how": the full-factorial :class:`~repro.dse.engine.SweepSpec`, the
search strategy driving it (``grid`` walks the spec, the named adaptive
strategies sample the space it spans), and the run flags (resume,
static pruning).  Every execution surface consumes the same object —

* in-process: :meth:`repro.dse.engine.SweepEngine.submit`;
* distributed: :meth:`repro.service.SweepCoordinator.submit`;
* CLI: ``repro sweep`` / ``repro coordinator`` build one from grouped
  flags and/or a ``--config`` TOML file.

The TOML mapping lives here too: :func:`request_from_config` /
:func:`request_to_config` round-trip a request through the nested
section dict the config file holds, :func:`merge_config` layers CLI
overrides on file values on defaults, and :func:`dump_config` renders
the effective configuration back to TOML (Python 3.11 ships a TOML
reader but no writer, so the emitter is local).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.core.replacement import ReplacementCriteria
from repro.energy.scenarios import ScenarioSpec, resolve_scenario
from repro.tech.nvm import get_technology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.diac import DiacConfig
    from repro.dse.strategies import SearchStrategy

from repro.dse.engine import SweepSpec
from repro.dse.resilience import check_count
from repro.dse.strategies import STRATEGIES

#: Strategies that accept ``analysis_prune``: the grid sweep prunes in
#: the engine, the halving search screens its pool statically.
PRUNABLE_STRATEGIES = ("grid", "halving")

#: Sections of the sweep configuration file, in emission order.  The
#: first four describe the :class:`SweepRequest`; ``execution`` and
#: ``store`` configure the engine/coordinator around it and are carried
#: through :func:`merge_config` for the CLI.
CONFIG_SECTIONS = (
    "space", "scenarios", "search", "analysis", "execution", "store",
)

#: ``(section, key, default)`` for every configuration value.  The
#: merge order is CLI flag > config file > this default; ``None``
#: defaults mean "no value" (TOML has no null, so such keys are simply
#: omitted from emitted files).
CONFIG_DEFAULTS: tuple[tuple[str, str, object], ...] = (
    ("space", "circuits", ()),
    ("space", "policies", (1, 2, 3)),
    ("space", "budget_scales", (0.5, 1.0, 2.0)),
    ("space", "technologies", ("mram",)),
    ("space", "criteria", ("1,1,1",)),
    ("space", "safe_zone", "both"),
    ("space", "threshold_scales", (1.0,)),
    ("space", "safe_margin_scales", ()),
    ("scenarios", "scenarios", ("paper-fig5",)),
    ("search", "strategy", "grid"),
    ("search", "samples", 24),
    ("search", "generations", 4),
    ("search", "seed", 0),
    ("search", "max_generations", 64),
    ("analysis", "prune", False),
    ("execution", "workers", 1),
    ("execution", "max_attempts", 3),
    ("execution", "batch_timeout", None),
    ("store", "results", None),
    ("store", "backend", "auto"),
    ("store", "fsync_every", 0),
    ("store", "resume", False),
)


@dataclass(frozen=True)
class SweepRequest:
    """Everything one sweep submission needs, in one object.

    Attributes:
        spec: the exploration space.  ``grid`` walks it full-factorially;
            the adaptive strategies sample the space its axes span and
            evaluate every proposal on ``spec.circuits`` x
            ``spec.scenarios``.
        strategy: a name from
            :data:`~repro.dse.strategies.STRATEGIES` (materialized via
            :func:`~repro.dse.strategies.make_strategy`), or a
            ready-built :class:`~repro.dse.strategies.SearchStrategy`
            instance for callers that construct their own (the
            coordinator requires a name — strategy objects do not cross
            process boundaries).
        samples: per-generation candidate budget of a named non-grid
            strategy.
        generations: adaptive rounds of a named halving/evolution
            strategy.
        search_seed: RNG seed of a named strategy.
        max_generations: backstop against a runaway ask loop; the
            effective bound never truncates the rounds explicitly
            requested (see :meth:`effective_max_generations`).
        resume: skip points the result store already holds.
        analysis_prune: static interval analysis before simulating
            (grid: engine pruning; halving: static round 0).

    Raises:
        TypeError: for a non-``int`` (or ``bool``) count or seed, or a
            non-``bool`` ``resume``/``analysis_prune``.
        ValueError: for an unknown strategy name, a count below 1, or
            ``analysis_prune`` on a strategy that cannot prune.
    """

    spec: SweepSpec = field(default_factory=SweepSpec)
    strategy: Union[str, "SearchStrategy"] = "grid"
    samples: int = 24
    generations: int = 4
    search_seed: int = 0
    max_generations: int = 64
    resume: bool = False
    analysis_prune: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.strategy, str) and (
            self.strategy not in STRATEGIES
        ):
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{', '.join(STRATEGIES)} or a SearchStrategy instance"
            )
        for name in ("samples", "generations", "max_generations"):
            check_count(name, getattr(self, name), 1)
        # Any int seeds a strategy, negative ones included.
        seed = self.search_seed
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise TypeError(f"search_seed must be an int, got {seed!r}")
        for name in ("resume", "analysis_prune"):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise TypeError(f"{name} must be a bool, got {flag!r}")
        if self.analysis_prune and (
            self.strategy_name not in PRUNABLE_STRATEGIES
        ):
            raise ValueError(
                "analysis_prune applies to the grid sweep (engine "
                "pruning) and the halving search (static round 0), not "
                f"strategy {self.strategy_name or type(self.strategy).__name__!r}"
            )

    @property
    def strategy_name(self) -> str | None:
        """The strategy's registry name, or ``None`` for an instance."""
        return self.strategy if isinstance(self.strategy, str) else None

    def effective_max_generations(self) -> int:
        """The generation bound :meth:`SweepEngine.submit` runs under.

        Named strategies self-terminate; the backstop only guards
        against a runaway ask loop, so for them it must never truncate
        the ``generations`` the request explicitly asked for.  A
        strategy *instance* ignores ``generations`` entirely (its
        rounds were fixed at construction), so the bound is exactly
        ``max_generations``.
        """
        if self.strategy_name is None:
            return self.max_generations
        return max(self.max_generations, self.generations)

    def build_strategy(
        self,
        netlists: dict | None = None,
        base_config: "DiacConfig | None" = None,
        caches: dict | None = None,
    ) -> "SearchStrategy":
        """Materialize the request's (non-grid) search strategy.

        A named strategy becomes a fresh
        :func:`~repro.dse.strategies.make_strategy` instance over the
        space the spec's axes span — with a
        :class:`~repro.analysis.StaticScreener` round 0 when
        ``analysis_prune`` rides a halving search.  ``netlists`` (roster
        circuits load automatically), the sweep's ``base_config`` and
        its circuit -> synthesis-cache map ``caches`` feed the screener,
        so it ranks the sweep that will run and leaves its stages warm
        for it.  A strategy *instance* is returned as-is.

        Raises:
            ValueError: from :func:`~repro.dse.strategies.make_strategy`,
                for ``strategy="grid"`` (:meth:`SweepEngine.submit`
                routes the grid to the dedicated spec-order path) or a
                halving request whose ``generations`` it rejects.
        """
        if not isinstance(self.strategy, str):
            return self.strategy
        from repro.dse.strategies import DesignSpace, make_strategy

        screener = None
        if self.analysis_prune and self.strategy == "halving":
            from repro.analysis import StaticScreener
            from repro.suite.registry import load_circuit

            netlists = dict(netlists or {})
            for name in self.spec.circuits:
                if name not in netlists:
                    netlists[name] = load_circuit(name)
            screener = StaticScreener(
                netlists=netlists,
                scenarios=self.spec.scenarios,
                base_config=base_config,
                caches=caches if caches is not None else {},
            )
        return make_strategy(
            self.strategy,
            DesignSpace.from_spec(self.spec),
            samples=self.samples,
            generations=self.generations,
            seed=self.search_seed,
            screener=screener,
        )


# -- scenario / criteria / axis value parsing ---------------------------


def parse_scenario_value(value: object) -> ScenarioSpec:
    """One config/CLI scenario value -> validated :class:`ScenarioSpec`.

    Accepts the CLI's ``name[@seed[@scale]]`` spec strings (tried as a
    bare registry/trace name first, so a power-log path containing
    ``@`` resolves as a file) and the exact ``[name, seed, scale]``
    identity triples :func:`request_to_config` may emit.

    Raises:
        ValueError: on a malformed spec or unknown scenario name.
    """
    if isinstance(value, (list, tuple)):
        if len(value) != 3:
            raise ValueError(
                f"scenario triple {value!r} must be [name, seed, scale]"
            )
        spec = ScenarioSpec(
            name=str(value[0]), seed=int(value[1]), scale=float(value[2])
        )
        _resolve_or_raise(spec.name)
        return spec
    text = str(value)
    try:
        resolve_scenario(text)
    except KeyError:
        spec = ScenarioSpec.parse(text)
        _resolve_or_raise(spec.name)
        return spec
    return ScenarioSpec(name=text)


def _resolve_or_raise(name: str) -> None:
    """Fail fast on unknown scenario names, as a ``ValueError``."""
    try:
        resolve_scenario(name)
    except KeyError as error:
        message = error.args[0] if error.args else error
        raise ValueError(str(message)) from None


def parse_criteria_value(value: object) -> ReplacementCriteria:
    """One criteria value -> :class:`ReplacementCriteria`.

    Accepts the CLI's ``level,power,fanio`` weight-triple strings and
    plain ``[level, power, fanio]`` lists.

    Raises:
        ValueError: on a malformed triple.
    """
    if isinstance(value, (list, tuple)):
        parts: list[object] = list(value)
    else:
        parts = str(value).split(",")  # type: ignore[assignment]
    if len(parts) != 3:
        raise ValueError(
            f"criteria spec {value!r} must be three weights "
            "(level,power,fanio), e.g. 1,1,1"
        )
    try:
        level, power, fanio = (float(p) for p in parts)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(
            f"criteria spec {value!r} has non-numeric weights"
        ) from None
    return ReplacementCriteria(
        level_weight=level, power_weight=power, fanio_weight=fanio
    )


def _safe_zones_from_config(value: object) -> tuple[bool, ...]:
    """``both``/``on``/``off`` (or a bool list) -> safe-zone axis."""
    if isinstance(value, str):
        try:
            return {
                "both": (True, False), "on": (True,), "off": (False,),
            }[value]
        except KeyError:
            raise ValueError(
                f"safe_zone must be both, on or off, got {value!r}"
            ) from None
    if isinstance(value, (list, tuple)) and value and all(
        isinstance(v, bool) for v in value
    ):
        return tuple(value)
    raise ValueError(
        f"safe_zone must be both/on/off or a list of booleans, "
        f"got {value!r}"
    )


def _safe_zones_to_config(values: tuple[bool, ...]) -> object:
    """Inverse of :func:`_safe_zones_from_config`, preferring the names."""
    named = {(True, False): "both", (True,): "on", (False,): "off"}
    return named.get(tuple(values), list(values))


def _scenario_to_config(spec: ScenarioSpec) -> object:
    """A scenario as its pasteable label, or an exact identity triple.

    Labels are the human-friendly form and round-trip through
    :meth:`ScenarioSpec.parse` for every registry scenario; a spec
    whose label does *not* round-trip (a trace-file path containing
    ``@``) is emitted as the unambiguous ``[name, seed, scale]``
    triple instead.
    """
    label = spec.label()
    try:
        if ScenarioSpec.parse(label) == spec:
            return label
    except ValueError:  # pragma: no cover - pathological names only
        pass
    return [spec.name, spec.seed, spec.scale]


# -- config dict <-> request -------------------------------------------


def merge_config(
    file_config: dict | None = None, overrides: dict | None = None
) -> dict:
    """Layer overrides > file values > defaults into one full config.

    ``file_config`` is the nested section dict a ``--config`` TOML file
    parses to; ``overrides`` maps ``(section, key)``-style nested dicts
    of explicitly-set CLI values.  Unknown sections/keys in
    ``file_config`` raise, so a typo in a config file fails loudly
    instead of silently running the defaults.

    Raises:
        ValueError: on an unknown section or key.
    """
    file_config = file_config or {}
    overrides = overrides or {}
    known = {(s, k) for s, k, _d in CONFIG_DEFAULTS}
    for section, entries in file_config.items():
        if section not in CONFIG_SECTIONS:
            raise ValueError(
                f"unknown config section [{section}]; expected "
                + ", ".join(CONFIG_SECTIONS)
            )
        if not isinstance(entries, dict):
            raise ValueError(f"config section [{section}] must be a table")
        for key in entries:
            if (section, key) not in known:
                raise ValueError(
                    f"unknown config key {key!r} in section [{section}]"
                )
    merged: dict = {section: {} for section in CONFIG_SECTIONS}
    for section, key, default in CONFIG_DEFAULTS:
        value = overrides.get(section, {}).get(key)
        if value is None:
            value = file_config.get(section, {}).get(key)
        if value is None:
            value = list(default) if isinstance(default, tuple) else default
        merged[section][key] = value
    return merged


def request_from_config(config: dict) -> SweepRequest:
    """Build the :class:`SweepRequest` a (partial) config describes.

    Missing sections/keys take their :data:`CONFIG_DEFAULTS`; the
    ``execution``/``store`` sections do not shape the request (beyond
    ``store.resume``) — they configure the engine around it and are
    read by the CLI via :func:`merge_config`.

    Raises:
        ValueError: on malformed axis values or an empty circuit list.
    """
    merged = merge_config(config)
    space = merged["space"]
    if not space["circuits"]:
        raise ValueError(
            "no circuits given (config [space] circuits or CLI arguments)"
        )
    try:
        technologies = tuple(
            get_technology(str(name)) for name in space["technologies"]
        )
    except KeyError as error:
        raise ValueError(str(error.args[0])) from None
    margins = tuple(
        None if scale == 0 else float(scale)
        for scale in space["safe_margin_scales"]
    )
    spec = SweepSpec(
        circuits=tuple(str(c) for c in space["circuits"]),
        policies=tuple(int(p) for p in space["policies"]),
        budget_scales=tuple(float(b) for b in space["budget_scales"]),
        technologies=technologies,
        criteria_sets=tuple(
            parse_criteria_value(v) for v in space["criteria"]
        ),
        safe_zones=_safe_zones_from_config(space["safe_zone"]),
        threshold_scales=tuple(
            float(t) for t in space["threshold_scales"]
        ),
        safe_margin_scales=margins or (None,),
        scenarios=tuple(
            parse_scenario_value(v)
            for v in merged["scenarios"]["scenarios"]
        ),
    )
    search = merged["search"]
    return SweepRequest(
        spec=spec,
        strategy=str(search["strategy"]),
        samples=int(search["samples"]),
        generations=int(search["generations"]),
        search_seed=int(search["seed"]),
        max_generations=int(search["max_generations"]),
        resume=bool(merged["store"]["resume"]),
        analysis_prune=bool(merged["analysis"]["prune"]),
    )


def request_to_config(request: SweepRequest) -> dict:
    """The request as the nested config sections it round-trips through.

    ``request_from_config(request_to_config(r))`` reconstructs ``r``
    exactly for any named-strategy request (the supported config
    surface; strategy *instances* have no file form and raise).

    Raises:
        ValueError: for a request carrying a strategy instance.
    """
    if request.strategy_name is None:
        raise ValueError(
            "a SearchStrategy instance has no config-file form; use a "
            "named strategy"
        )
    spec = request.spec
    return {
        "space": {
            "circuits": list(spec.circuits),
            "policies": list(spec.policies),
            "budget_scales": list(spec.budget_scales),
            "technologies": [t.name for t in spec.technologies],
            "criteria": [
                [c.level_weight, c.power_weight, c.fanio_weight]
                for c in spec.criteria_sets
            ],
            "safe_zone": _safe_zones_to_config(spec.safe_zones),
            "threshold_scales": list(spec.threshold_scales),
            "safe_margin_scales": [
                0.0 if scale is None else scale
                for scale in spec.safe_margin_scales
            ],
        },
        "scenarios": {
            "scenarios": [
                _scenario_to_config(s) for s in spec.scenarios
            ],
        },
        "search": {
            "strategy": request.strategy_name,
            "samples": request.samples,
            "generations": request.generations,
            "seed": request.search_seed,
            "max_generations": request.max_generations,
        },
        "analysis": {"prune": request.analysis_prune},
        "store": {"resume": request.resume},
    }


# -- TOML I/O -----------------------------------------------------------


def load_config_file(path: str | Path) -> dict:
    """Parse a ``--config`` TOML file into the nested section dict.

    Raises:
        ValueError: on unreadable files or TOML syntax errors (wrapped,
            so CLI error handling stays uniform).
    """
    import tomllib

    try:
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    except OSError as error:
        raise ValueError(f"cannot read config file: {error}") from None
    except tomllib.TOMLDecodeError as error:
        raise ValueError(f"{path}: {error}") from None


def _toml_value(value: object) -> str:
    """Render one scalar/list as TOML."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        import json

        # JSON string escaping is valid TOML basic-string escaping.
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise ValueError(f"cannot render {value!r} as TOML")


def dump_config(config: dict) -> str:
    """Render a nested section dict as TOML text.

    Sections emit in :data:`CONFIG_SECTIONS` order; ``None`` values
    (e.g. an unset ``results`` path) are omitted, since TOML has no
    null.  The output parses back via :mod:`tomllib` to an equal dict
    (modulo the omitted ``None`` keys, which re-merge as defaults).
    """
    lines: list[str] = []
    sections = [s for s in CONFIG_SECTIONS if s in config]
    sections += [s for s in config if s not in CONFIG_SECTIONS]
    for section in sections:
        entries = {
            k: v for k, v in config[section].items() if v is not None
        }
        if not entries:
            continue
        if lines:
            lines.append("")
        lines.append(f"[{section}]")
        lines.extend(
            f"{key} = {_toml_value(value)}"
            for key, value in entries.items()
        )
    return "\n".join(lines) + "\n"
