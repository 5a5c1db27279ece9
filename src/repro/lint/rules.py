"""The rule registry: one :class:`Rule` per enforced invariant.

Each rule is a pure function over one parsed file (an
:class:`ast.Module` plus its path) yielding ``(node, message)`` pairs;
the :mod:`repro.lint.runner` turns those into :class:`Finding` records,
applies ``# repro-lint: disable=`` suppressions, and reports.  Rules
carry their invariant and its fix as text so ``--explain RPL###`` can
teach instead of just scold.

The rule ids are stable API (they appear in suppression comments and
in ``docs/static-analysis.md``):

========  ========  ==========================================================
id        severity  invariant
========  ========  ==========================================================
RPL000    error     a suppression comment must suppress something
RPL010    error     linted files must parse
RPL100    error     no legacy ``np.random`` global-state calls
RPL101    error     no stdlib ``random`` in engine/store code
RPL102    error     ``default_rng``/``Generator`` built only in ``sim/rng.py``
RPL103    error     no wall-clock/OS entropy outside the provenance allowlist
RPL110    error     store files append only through the locking helpers
RPL111    error     every ``flock`` acquire pairs with a guaranteed release
RPL120    error     ``cover`` capability requires a ``batch_cover`` engine
RPL121    warning   ``hit`` capability without ``batch_hit`` (the known gap)
RPL130    error     public functions in gated API modules are annotated
RPL150    error     sim/store timing goes through the injected Tracer clock
RPL200    error     every registered sweep expands (contract audit)
RPL201    error     batch engines/factories match the protocol (contract audit)
RPL202    error     docs anchors the test suite expects resolve (contract audit)
RPL203    error     implicit topologies bind the oracle protocol (contract audit)
========  ========  ==========================================================
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass, field
from collections.abc import Callable, Iterator, Mapping
from typing import Any

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "RULES",
    "register_rule",
    "get_rule",
    "all_rules",
    "ERROR",
    "WARNING",
]

#: severity vocabulary — ``error`` findings fail the build, ``warning``
#: findings are reported but exit 0
ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One reported violation: rule, location, human message."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (``--format=json`` emits a list of these)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output (round-trip)."""
        return cls(
            rule=str(data["rule"]),
            severity=str(data["severity"]),
            path=str(data["path"]),
            line=int(data["line"]),
            col=int(data["col"]),
            message=str(data["message"]),
        )

    def render(self) -> str:
        """The one-line text form: ``path:line:col: RPL### [sev] msg``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"


class FileContext:
    """One parsed file handed to every rule checker.

    Attributes
    ----------
    path : str
        POSIX-style path of the file (rules scope themselves by
        matching substrings such as ``repro/store/``).
    tree : ast.Module
        The parsed module.
    source : str
        Raw file text.
    """

    def __init__(self, path: str, tree: ast.Module, source: str) -> None:
        self.path = path
        self.tree = tree
        self.source = source
        self._parents: dict[int, ast.AST] | None = None

    def parent_map(self) -> dict[int, ast.AST]:
        """Map ``id(child)`` → parent node, built lazily once per file."""
        if self._parents is None:
            parents: dict[int, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[id(child)] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ``node``'s ancestors innermost-first up to the module."""
        parents = self.parent_map()
        current = parents.get(id(node))
        while current is not None:
            yield current
            current = parents.get(id(current))


#: checker signature: yield ``(node, message)`` for each violation
Checker = Callable[[FileContext], Iterator[tuple[ast.AST, str]]]


@dataclass(frozen=True)
class Rule:
    """One registered invariant.

    Attributes
    ----------
    id : str
        Stable ``RPL###`` identifier (suppression comments name it).
    severity : str
        ``"error"`` (fails the build) or ``"warning"`` (reported only).
    title : str
        One-line summary for listings and the docs rule table.
    invariant : str
        What must hold, and why the sweep store depends on it
        (printed by ``--explain``).
    fix : str
        How to bring a violating file into compliance.
    checker : Checker or None
        The per-file AST pass; ``None`` for meta rules (RPL000/RPL010)
        and import-time contract-audit rules (RPL2xx), which the
        runner/auditor emit directly.
    """

    id: str
    severity: str
    title: str
    invariant: str
    fix: str
    checker: Checker | None = field(default=None, compare=False)

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        """Apply the checker to one file, yielding findings."""
        if self.checker is None:
            return
        for node, message in self.checker(ctx):
            yield Finding(
                rule=self.id,
                severity=self.severity,
                path=ctx.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )


RULES: dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Register *rule*, rejecting duplicate ids."""
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return rule


def get_rule(rule_id: str) -> Rule:
    """Look up a rule, raising with the known ids on miss."""
    try:
        return RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(RULES))
        raise KeyError(f"unknown rule {rule_id!r}; known: {known}") from None


def all_rules() -> list[Rule]:
    """All registered rules, sorted by id."""
    return [RULES[k] for k in sorted(RULES)]


# ---------------------------------------------------------------------------
# path scoping helpers


def _posix(path: str) -> str:
    return path.replace("\\", "/")


def _in_engine_or_store(path: str) -> bool:
    """Engine/store scope: the code whose RNG discipline the store trusts."""
    p = _posix(path)
    return any(
        f"repro/{part}/" in p for part in ("sim", "store", "walks", "core")
    )


def _in_store(path: str) -> bool:
    return "repro/store/" in _posix(path)


def _is_rng_module(path: str) -> bool:
    return _posix(path).endswith("sim/rng.py")


#: files allowed to read the wall clock / OS entropy: lease TTLs in the
#: dispatch ledger, experiment-runner stamps, and the straggler report's
#: lease-expiry arithmetic — none of it keyed
_WALLCLOCK_ALLOWLIST = (
    "repro/store/dispatch.py",
    "repro/experiments/cli.py",
    "repro/obs/report.py",
)


def _wallclock_allowed(path: str) -> bool:
    p = _posix(path)
    return any(p.endswith(entry) for entry in _WALLCLOCK_ALLOWLIST)


#: modules whose public surface is the repo's API: the docstring gate
#: (ruff D1/D417) and the annotation gate (RPL130) cover the same set,
#: plus the linter itself and the store's hashed-value schema
GATED_API_MODULES = (
    "repro/sim/facade.py",
    "repro/sim/batch.py",
    "repro/sim/processes.py",
    "repro/sim/rng.py",
    "repro/store/spec.py",
    "repro/walks/simple.py",
)


def _is_gated_api(path: str) -> bool:
    p = _posix(path)
    return any(p.endswith(entry) for entry in GATED_API_MODULES) or "repro/lint/" in p


# ---------------------------------------------------------------------------
# AST pattern helpers


def _is_np_random(node: ast.AST) -> bool:
    """Match the expression ``np.random`` / ``numpy.random``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def _numpy_random_aliases(tree: ast.Module, names: frozenset[str]) -> dict[str, str]:
    """Local aliases bound by ``from numpy.random import X [as Y]``."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            for alias in node.names:
                if alias.name in names:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


#: ``np.random.<attr>`` calls that mutate or read hidden global state —
#: the exact surface NPY002 covers, plus the state accessors
_LEGACY_NP_RANDOM = frozenset(
    {
        "seed", "get_state", "set_state", "RandomState",
        "rand", "randn", "randint", "random_integers", "random_sample",
        "ranf", "sample", "random", "choice", "bytes", "shuffle",
        "permutation", "beta", "binomial", "chisquare", "dirichlet",
        "exponential", "f", "gamma", "geometric", "gumbel",
        "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
        "multinomial", "multivariate_normal", "negative_binomial",
        "noncentral_chisquare", "noncentral_f", "normal", "pareto",
        "poisson", "power", "rayleigh", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_normal",
        "standard_t", "triangular", "uniform", "vonmises", "wald",
        "weibull", "zipf",
    }
)


def _check_rpl100(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    aliases = _numpy_random_aliases(ctx.tree, _LEGACY_NP_RANDOM)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LEGACY_NP_RANDOM
            and _is_np_random(func.value)
        ):
            yield node, (
                f"np.random.{func.attr}() drives numpy's hidden global RNG; "
                "draw from a Generator obtained via repro.sim.rng.resolve_rng "
                "instead"
            )
        elif isinstance(func, ast.Name) and func.id in aliases:
            yield node, (
                f"numpy.random.{aliases[func.id]}() drives numpy's hidden "
                "global RNG; draw from a Generator obtained via "
                "repro.sim.rng.resolve_rng instead"
            )


def _check_rpl101(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    if not _in_engine_or_store(ctx.path):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node, (
                        "stdlib `random` in engine/store code bypasses the "
                        "[root, H(cell)] seed discipline; use numpy "
                        "Generators from repro.sim.rng"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random" and node.level == 0:
                yield node, (
                    "stdlib `random` in engine/store code bypasses the "
                    "[root, H(cell)] seed discipline; use numpy Generators "
                    "from repro.sim.rng"
                )


_RNG_CONSTRUCTORS = frozenset({"default_rng", "Generator"})


def _check_rpl102(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    if _is_rng_module(ctx.path):
        return
    aliases = _numpy_random_aliases(ctx.tree, _RNG_CONSTRUCTORS)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name: str | None = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _RNG_CONSTRUCTORS
            and _is_np_random(func.value)
        ):
            name = func.attr
        elif isinstance(func, ast.Name) and func.id in aliases:
            name = aliases[func.id]
        if name is not None:
            yield node, (
                f"np.random.{name}(...) constructed outside sim/rng.py; "
                "normalise seeds through repro.sim.rng.resolve_rng / "
                "spawn_rngs so every stream derives from the seed discipline"
            )


def _is_datetime_expr(node: ast.AST) -> bool:
    """Match ``datetime`` or ``datetime.datetime`` (class or module)."""
    if isinstance(node, ast.Name) and node.id == "datetime":
        return True
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "datetime"
        and isinstance(node.value, ast.Name)
        and node.value.id == "datetime"
    )


def _check_rpl103(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    if _wallclock_allowed(ctx.path):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        value = func.value
        bad: str | None = None
        if func.attr == "time" and isinstance(value, ast.Name) and value.id == "time":
            bad = "time.time()"
        elif func.attr in ("now", "utcnow") and _is_datetime_expr(value):
            bad = f"datetime.{func.attr}()"
        elif func.attr == "urandom" and isinstance(value, ast.Name) and value.id == "os":
            bad = "os.urandom()"
        if bad is not None:
            yield node, (
                f"{bad} reads wall-clock/OS entropy outside the provenance "
                "allowlist; keyed paths must be pure functions of the cell "
                "payload (see docs/static-analysis.md)"
            )


def _open_mode(node: ast.Call) -> ast.expr | None:
    """The mode argument of an ``open``/``.open`` call, if present."""
    func = node.func
    mode_index = 1 if isinstance(func, ast.Name) else 0
    for kw in node.keywords:
        if kw.arg == "mode":
            return kw.value
    if len(node.args) > mode_index:
        return node.args[mode_index]
    return None


def _is_seam_module(path: str) -> bool:
    """The two modules allowed to touch files raw: the flock helpers and
    the backend seam they sit behind."""
    p = _posix(path)
    return p.endswith("store/locking.py") or p.endswith("store/backend.py")


def _check_rpl110(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    if not _in_store(ctx.path) or _is_seam_module(ctx.path):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            yield node, (
                f"raw .{func.attr}(...) in store code; whole-blob rewrites "
                "must go through StorageBackend.compare_and_swap so a "
                "concurrent append or CAS cannot be silently overwritten"
            )
            continue
        is_open = (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
        if not is_open:
            continue
        mode = _open_mode(node)
        if (
            isinstance(mode, ast.Constant)
            and isinstance(mode.value, str)
            and any(ch in mode.value for ch in "aw")
        ):
            yield node, (
                f"raw open(..., {mode.value!r}) in store code; shard and "
                "ledger writes must route through the StorageBackend seam "
                "(append_line / compare_and_swap) or repro.store.locking so "
                "concurrent writers interleave whole records"
            )


_ACQUIRE_FLAGS = frozenset({"LOCK_EX", "LOCK_SH"})
_RELEASE_NAMES = frozenset({"release", "unlock"})


def _flock_flag(node: ast.Call) -> str | None:
    """The LOCK_* flag named in a ``flock(...)`` call, if any."""
    for arg in node.args:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Attribute) and sub.attr.startswith("LOCK_"):
                return sub.attr
            if isinstance(sub, ast.Name) and sub.id.startswith("LOCK_"):
                return sub.id
    return None


def _is_flock_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "flock"
    )


def _has_guaranteed_release(ctx: FileContext, acquire: ast.Call) -> bool:
    """True when the acquire is inside a ``with`` or its function holds a
    ``try/finally`` whose finally releases the lock."""
    scope: ast.AST = ctx.tree
    for ancestor in ctx.ancestors(acquire):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = ancestor
            break
    for node in ast.walk(scope):
        if not (isinstance(node, ast.Try) and node.finalbody):
            continue
        for stmt in node.finalbody:
            for sub in ast.walk(stmt):
                if _is_flock_call(sub) and _flock_flag(sub) == "LOCK_UN":
                    return True
                if isinstance(sub, ast.Call):
                    func = sub.func
                    name = (
                        func.attr
                        if isinstance(func, ast.Attribute)
                        else func.id
                        if isinstance(func, ast.Name)
                        else ""
                    )
                    if any(part in name.lower() for part in _RELEASE_NAMES):
                        return True
    return False


def _is_try_claim_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "try_claim"
    )


def _claim_has_guaranteed_release(ctx: FileContext, claim: ast.Call) -> bool:
    """True when the claiming function releases the lease on the error
    path: a ``.release(...)`` call inside an except handler or finally
    block of the same function."""
    scope: ast.AST = ctx.tree
    for ancestor in ctx.ancestors(claim):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = ancestor
            break
    for node in ast.walk(scope):
        if not isinstance(node, ast.Try):
            continue
        guarded = list(node.finalbody)
        for handler in node.handlers:
            guarded.extend(handler.body)
        for stmt in guarded:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "release"
                ):
                    return True
    return False


def _check_rpl111(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    for node in ast.walk(ctx.tree):
        if _is_flock_call(node) and _flock_flag(node) in _ACQUIRE_FLAGS:
            assert isinstance(node, ast.Call)
            if not _has_guaranteed_release(ctx, node):
                yield node, (
                    "flock acquisition without a guaranteed release: wrap "
                    "the critical section in a context manager or release "
                    "LOCK_UN in a finally block (a leaked lock deadlocks "
                    "every other store writer)"
                )
        elif _is_try_claim_call(node):
            assert isinstance(node, ast.Call)
            if not _claim_has_guaranteed_release(ctx, node):
                yield node, (
                    "try_claim without a release guaranteed on failure: the "
                    "claiming function must call ledger.release "
                    "(op=\"abandon\") in an except handler or finally block, "
                    "or the cell stays leased until the TTL expires"
                )


def _spec_capabilities(call: ast.Call) -> set[str] | None:
    """String constants inside the ``capabilities=`` keyword literal."""
    for kw in call.keywords:
        if kw.arg == "capabilities":
            return {
                sub.value
                for sub in ast.walk(kw.value)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            }
    return None


def _iter_process_specs(ctx: FileContext) -> Iterator[tuple[ast.Call, set[str], set[str]]]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else ""
        )
        if name != "ProcessSpec":
            continue
        caps = _spec_capabilities(node)
        if caps is None:
            continue
        kwargs = {kw.arg for kw in node.keywords if kw.arg is not None}
        yield node, caps, kwargs


def _check_rpl120(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    for node, caps, kwargs in _iter_process_specs(ctx):
        if "cover" in caps and "batch_cover" not in kwargs:
            yield node, (
                "ProcessSpec declares the 'cover' capability without a "
                "batch_cover engine; every cover-capable process must ship "
                "its vectorized engine (run_batch depends on it)"
            )


def _check_rpl121(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    for node, caps, kwargs in _iter_process_specs(ctx):
        if "hit" in caps and "batch_hit" not in kwargs:
            yield node, (
                "ProcessSpec declares the 'hit' capability without a "
                "batch_hit engine; hit sweeps fall back to the serial path "
                "(the known batch_hit gap — see ROADMAP item 4)"
            )


def _unannotated_args(fn: ast.FunctionDef | ast.AsyncFunctionDef, *, skip_self: bool) -> list[str]:
    missing: list[str] = []
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    if skip_self and positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    for arg in positional + list(args.kwonlyargs):
        if arg.annotation is None:
            missing.append(arg.arg)
    for vararg in (args.vararg, args.kwarg):
        if vararg is not None and vararg.annotation is None:
            missing.append(vararg.arg)
    return missing


def _check_rpl130(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    if not _is_gated_api(ctx.path):
        return

    def check_fn(
        fn: ast.FunctionDef | ast.AsyncFunctionDef, *, skip_self: bool
    ) -> Iterator[tuple[ast.AST, str]]:
        if fn.name.startswith("_"):
            return
        missing = _unannotated_args(fn, skip_self=skip_self)
        if missing:
            yield fn, (
                f"public function {fn.name}() is missing annotations on "
                f"{', '.join(missing)}; gated API modules carry full type "
                "annotations (mypy enforces them in CI)"
            )
        if fn.returns is None:
            yield fn, (
                f"public function {fn.name}() is missing its return "
                "annotation; gated API modules carry full type annotations"
            )

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from check_fn(node, skip_self=False)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from check_fn(item, skip_self=True)


#: ``time`` module clock readers — every way sim/store code could read
#: a clock behind the Tracer's back (``time.sleep`` is waiting, not
#: reading, and stays legal)
_CLOCK_ATTRS = frozenset(
    {
        "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
        "monotonic_ns", "process_time", "process_time_ns", "thread_time",
        "thread_time_ns",
    }
)

#: sim/store files allowed raw clock reads: the dispatch ledger's lease
#: TTLs compare against real wall time by design
_RPL150_ALLOWLIST = ("repro/store/dispatch.py",)


def _time_aliases(tree: ast.Module) -> dict[str, str]:
    """Local aliases bound by ``from time import X [as Y]`` for clock
    readers (the from-import spelling of a ``time.X()`` call)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time" and node.level == 0:
            for alias in node.names:
                if alias.name in _CLOCK_ATTRS:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def _check_rpl150(ctx: FileContext) -> Iterator[tuple[ast.AST, str]]:
    p = _posix(ctx.path)
    if "repro/sim/" not in p and "repro/store/" not in p:
        return
    if any(p.endswith(entry) for entry in _RPL150_ALLOWLIST):
        return
    aliases = _time_aliases(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name: str | None = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _CLOCK_ATTRS
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            name = func.attr
        elif isinstance(func, ast.Name) and func.id in aliases:
            name = aliases[func.id]
        if name is not None:
            yield node, (
                f"time.{name}() read directly in sim/store code; take "
                "timings from the injected Tracer clock "
                "(repro.obs.trace.Tracer(clock=...)) so tests can freeze "
                "time and instrumentation stays deterministic"
            )


# ---------------------------------------------------------------------------
# registration

register_rule(
    Rule(
        id="RPL000",
        severity=ERROR,
        title="unused suppression comment",
        invariant=(
            "Every `# repro-lint: disable=` / `disable-file=` directive must "
            "suppress at least one finding. A suppression that matches "
            "nothing is a stale exemption: the violation it excused was "
            "fixed (or never existed), and leaving it in place silently "
            "licenses a future regression."
        ),
        fix="Delete the stale directive (or narrow it to the rule it suppresses).",
    )
)

register_rule(
    Rule(
        id="RPL010",
        severity=ERROR,
        title="file does not parse",
        invariant="Linted files must be valid Python: the AST pass cannot vouch for a file it cannot parse.",
        fix="Fix the syntax error reported in the message.",
    )
)

register_rule(
    Rule(
        id="RPL100",
        severity=ERROR,
        title="legacy np.random global-state call",
        invariant=(
            "No `np.random.seed()` / legacy `np.random.<dist>()` calls "
            "anywhere in the tree. The store's seed-for-seed resume and "
            "multi-worker value parity hold only if every draw flows from "
            "a cell's [root, H(cell)] SeedSequence; numpy's hidden global "
            "RandomState is process-wide mutable state that any import can "
            "perturb, which silently decouples stored results from their "
            "content hash."
        ),
        fix=(
            "Accept a `seed` argument, normalise it with "
            "repro.sim.rng.resolve_rng, and call the distribution method on "
            "that Generator (rng.normal(...), rng.integers(...), ...)."
        ),
        checker=_check_rpl100,
    )
)

register_rule(
    Rule(
        id="RPL101",
        severity=ERROR,
        title="stdlib random in engine/store code",
        invariant=(
            "No `import random` in repro/sim, repro/store, repro/walks, or "
            "repro/core. The stdlib Mersenne Twister has its own global "
            "state and no SeedSequence spawning, so it cannot participate "
            "in the [root, H(cell)] discipline the store's dedup and "
            "resume guarantees are built on."
        ),
        fix=(
            "Use a numpy Generator from repro.sim.rng (resolve_rng / "
            "spawn_rngs); for a single uniform int, rng.integers is a "
            "drop-in for random.randrange."
        ),
        checker=_check_rpl101,
    )
)

register_rule(
    Rule(
        id="RPL102",
        severity=ERROR,
        title="RNG constructed outside sim/rng.py",
        invariant=(
            "`np.random.default_rng()` / `np.random.Generator(...)` are "
            "constructed only inside repro/sim/rng.py. Everyone else goes "
            "through resolve_rng/spawn_rngs so that every stream in the "
            "system is traceable to one seed-normalisation point — ad-hoc "
            "constructors are where `default_rng()` (fresh OS entropy!) "
            "slips into a keyed path."
        ),
        fix=(
            "Replace `np.random.default_rng(seed)` with "
            "`repro.sim.rng.resolve_rng(seed)` (same Generator semantics, "
            "plus acceptance of SeedSequence/Generator inputs)."
        ),
        checker=_check_rpl102,
    )
)

register_rule(
    Rule(
        id="RPL103",
        severity=ERROR,
        title="wall-clock/OS entropy outside the allowlist",
        invariant=(
            "No `time.time()`, `datetime.now()`/`utcnow()`, or "
            "`os.urandom()` outside the allowlist (store/dispatch.py lease "
            "TTLs, experiments/cli.py run stamps, obs/report.py lease-"
            "expiry arithmetic). A wall-clock read in a keyed path makes "
            "the result a function of *when* it ran, which breaks the "
            "content hash's claim that identical payloads mean identical "
            "work. Provenance wall stamps come from the Tracer's injected "
            "`walltime` instead (repro.obs.trace)."
        ),
        fix=(
            "Thread timestamps in from the allowlisted provenance layer, or "
            "suppress the single call with `# repro-lint: disable=RPL103` "
            "when the value is provably provenance-only (never hashed, "
            "never seeded)."
        ),
        checker=_check_rpl103,
    )
)

register_rule(
    Rule(
        id="RPL110",
        severity=ERROR,
        title="raw file write in store code bypassing the I/O seam",
        invariant=(
            "In repro/store/, no raw `open(..., 'a'|'w')` and no "
            "`write_text`/`write_bytes`: every shard/ledger write goes "
            "through the StorageBackend seam (append_line / "
            "compare_and_swap) — implemented by store/locking.py and "
            "store/backend.py, the only modules allowed to touch files "
            "raw. flock is advisory and CAS is optimistic: one writer "
            "bypassing the seam can interleave bytes mid-record or "
            "silently overwrite a concurrent compare-and-swap."
        ),
        fix=(
            "Route appends through backend.append_line (or ResultStore."
            "put) and whole-blob rewrites through backend."
            "compare_and_swap; only store/locking.py and store/backend.py "
            "may open store files directly."
        ),
        checker=_check_rpl110,
    )
)

register_rule(
    Rule(
        id="RPL111",
        severity=ERROR,
        title="lock or lease acquire without guaranteed release",
        invariant=(
            "Every `flock(..., LOCK_EX|LOCK_SH)` acquisition must sit "
            "inside a `with` block or a function whose try/finally "
            "releases LOCK_UN, and every `ledger.try_claim(...)` call "
            "must sit in a function that calls `.release(...)` from an "
            "except handler or finally block. A code path that raises "
            "between acquire and release leaks the lock until process "
            "exit (deadlocking every other store writer) or leaks the "
            "lease until its TTL expires (stalling the cell for every "
            "other worker)."
        ),
        fix=(
            "Use the repro.store.locking context managers instead of "
            "calling fcntl.flock directly; pair try_claim with "
            'ledger.release(h, owner=..., op="abandon") in an except '
            "handler (see drain() in repro/store/dispatch.py)."
        ),
        checker=_check_rpl111,
    )
)

register_rule(
    Rule(
        id="RPL120",
        severity=ERROR,
        title="cover capability without batch_cover engine",
        invariant=(
            "Every ProcessSpec literal that declares the 'cover' "
            "capability declares a batch_cover engine. run_batch's sharded "
            "executor and the sweep store both assume cover sweeps "
            "vectorize; a spec without the engine silently falls back to "
            "the serial per-trial loop and regresses sweeps by an order "
            "of magnitude."
        ),
        fix=(
            "Ship a batched engine (see repro/sim/batch.py for the "
            "flat-frontier templates) and pass it as batch_cover=..., or "
            "drop the capability."
        ),
        checker=_check_rpl120,
    )
)

register_rule(
    Rule(
        id="RPL121",
        severity=WARNING,
        title="hit capability without batch_hit engine (known gap)",
        invariant=(
            "ProcessSpecs declaring 'hit' should ship a batch_hit engine. "
            "parallel/branching/gossip still run metric='hit' "
            "serially (ROADMAP item 4); this warning keeps the gap visible "
            "in every lint run without failing the build."
        ),
        fix=(
            "Port the cobra batch_hit engine pattern "
            "(batched_cobra_hit_trials) to the process, or accept the "
            "warning until ROADMAP item 4 lands."
        ),
        checker=_check_rpl121,
    )
)

register_rule(
    Rule(
        id="RPL200",
        severity=ERROR,
        title="registered sweep fails to build/expand (contract audit)",
        invariant=(
            "Every sweep in repro.store.sweeps builds and expands to a "
            "non-empty RunKey list at quick and full scale. The CLI, the "
            "dispatch workers, and the CI smokes all call expand() "
            "unconditionally; a sweep that raises there is a landmine in "
            "the registry."
        ),
        fix=(
            "Run `python -m repro.lint --contracts` locally; the message "
            "names the failing sweep and scale — fix its SweepSpec "
            "declaration."
        ),
    )
)

register_rule(
    Rule(
        id="RPL201",
        severity=ERROR,
        title="batch engine/factory breaks the driver protocol (contract audit)",
        invariant=(
            "Every ProcessSpec factory accepts keywords start/seed/target, "
            "every batch_cover engine accepts trials/start/seed/max_steps, "
            "and every batch_hit engine additionally accepts target — the "
            "exact keywords simulate()/run_batch() pass at dispatch. A "
            "mismatched signature is a TypeError at sweep time, long after "
            "registration looked fine."
        ),
        fix=(
            "Match the engine signatures in repro/sim/batch.py "
            "(keyword-only protocol arguments, process knobs with "
            "defaults after them)."
        ),
    )
)

register_rule(
    Rule(
        id="RPL202",
        severity=ERROR,
        title="docs anchor missing (contract audit)",
        invariant=(
            "Every anchor listed in repro.lint.contracts.DOC_ANCHORS "
            "resolves in the committed docs pages. tests/test_docs.py "
            "imports the same mapping, so the docs the tests require and "
            "the docs the audit checks are one list."
        ),
        fix=(
            "Restore the section the message names, or update DOC_ANCHORS "
            "(and the docs test) if the contract genuinely moved."
        ),
    )
)

register_rule(
    Rule(
        id="RPL203",
        severity=ERROR,
        title="implicit topology breaks the oracle contract (contract audit)",
        invariant=(
            "Every topology in repro.graphs.implicit.IMPLICIT_TOPOLOGIES "
            "builds a NeighborOracle binding the full vectorized protocol "
            "(n/kind/min_degree/max_degree, degree/neighbor_at/sample_one/"
            "sample_neighbors/all_neighbors) and round-trips through the "
            "store's graph axes: a RunKey naming the builder reconstructs "
            "an oracle of the same size and kind. A topology that fails "
            "either half produces sweep cells that cannot be (re)produced "
            "from their content hash."
        ),
        fix=(
            "Subclass NeighborOracle (repro/graphs/implicit.py), export "
            "the builder from repro.graphs, and register the topology with "
            "small example params in IMPLICIT_TOPOLOGIES."
        ),
    )
)

register_rule(
    Rule(
        id="RPL130",
        severity=ERROR,
        title="missing annotations in gated API module",
        invariant=(
            "Public functions in the gated API modules (sim/facade.py, "
            "sim/batch.py, sim/processes.py, sim/rng.py, store/spec.py, "
            "walks/simple.py, and repro/lint itself) carry full type "
            "annotations — every "
            "parameter and the return type. These modules define the "
            "seed/engine/store contracts; mypy can only hold the line if "
            "the line is written down."
        ),
        fix=(
            "Annotate every parameter and the return type (numpy arrays "
            "as np.ndarray, seeds as repro.sim.rng.SeedLike)."
        ),
        checker=_check_rpl130,
    )
)

register_rule(
    Rule(
        id="RPL150",
        severity=ERROR,
        title="raw clock read in sim/store code",
        invariant=(
            "In repro/sim/ and repro/store/, no direct `time.time()`/"
            "`perf_counter()`/`monotonic()`/`process_time()` (or their "
            "_ns/from-import spellings) outside store/dispatch.py's lease "
            "arithmetic: every timing measurement routes through the "
            "injected Tracer clock (repro.obs.trace). A raw clock read is "
            "invisible to the telemetry layer and untestable — the "
            "injected clock lets tests freeze time and keeps RPL103 "
            "honest. `time.sleep()` is waiting, not reading, and stays "
            "legal."
        ),
        fix=(
            "Accept a Tracer (or use repro.obs.trace.current_tracer()) and "
            "read `tracer.clock()` / `tracer.walltime()`; or, for code "
            "that genuinely needs the OS clock, add the file to "
            "_RPL150_ALLOWLIST with a comment saying why."
        ),
        checker=_check_rpl150,
    )
)
