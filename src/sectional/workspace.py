"""Structure-definition files: parsing, reference resolution, task execution.

A workspace is a single JSON document holding a coefficient ring, named
structures (semigroupoids with optional inverse tables, homomorphisms,
actions, bundles, bundle actions, congruences), and an ordered task list.
Parsing performs structural validation only: shapes, id references, and
the kinds and shared bases that each task's entry in TASKS asks of the
structures it names. Semantics run when a task touches a structure.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable
from functools import partial

from .actions import (
    germ_quotient,
    quotient_semigroupoid,
    semidirect_product,
    validate_preaction,
    validate_rigid_congruence,
)
from .algebras import AlgebraPresentation
from .bundles import basis_sections, convolve, delta_section, validate_bundle
from .rings import Ring, validate_ring
from .semigroupoids import (
    composable_labels,
    direct_product,
    label_index,
    semigroupoid_to_raw,
    validate_homomorphism,
    validate_inverse_semigroupoid,
    validate_semigroupoid,
)
from .theorems import (
    coefficient_action,
    crossed_theorem,
    germ_corollary,
    quotient_map_and_kernel,
    skew_product,
    smash_theorem,
    tensor_theorem,
    validate_bundle_action,
    validate_bundle_congruence,
)
from .validation import (
    CapabilityError,
    SectionalError,
    StageError,
    StructureError,
    ValidationReport,
)

class WorkspaceError(SectionalError):
    """Structural problem in a workspace file: a parse error, a dangling id, or
    a task naming the wrong kind of structure or structures on different bases."""


class Task:
    def __init__(self, kind: str, params: dict, id: str = ""):
        self.kind, self.params, self.id = kind, params, id

    @property
    def theorem(self) -> str:
        return self.params.get("theorem", "")


class WorkspaceFile:
    """The ring, each named section of the file as name -> raw object, and the tasks."""

    def __init__(self, ring_spec: dict | None, semigroupoids: dict[str, dict],
                 homomorphisms: dict[str, dict], actions: dict[str, dict], bundles: dict[str, dict],
                 bundle_actions: dict[str, dict], congruences: dict[str, dict], tasks: list[Task],
                 path: str = ""):
        self.ring_spec, self.semigroupoids = ring_spec, semigroupoids
        self.homomorphisms, self.actions, self.bundles = homomorphisms, actions, bundles
        self.bundle_actions = bundle_actions
        self.congruences, self.tasks, self.path = congruences, tasks, path


def parse_workspace(text: str, path: str = "") -> WorkspaceFile:
    """Parse and structurally validate one workspace document.

    Raises WorkspaceError with a position annotation on malformed JSON, and
    with a list of problems on dangling references and on task parameters
    that break their TASKS entry. Semantic validation (axiom checks) is
    deferred to task execution.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(
            f"{path or '<workspace>'}: parse error at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        )
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise WorkspaceError(f"{path or '<workspace>'}: parse error: {exc}")
    except RecursionError:
        raise WorkspaceError(f"{path or '<workspace>'}: parse error: nested too deeply")
    if not isinstance(doc, dict):
        raise WorkspaceError(f"{path or '<workspace>'}: top level must be an object")

    def named_section(key: str) -> dict[str, dict]:
        section = doc.get(key, {})
        if not isinstance(section, dict) or any(
            not isinstance(v, dict) for v in section.values()
        ):
            raise WorkspaceError(f"{path}: section {key!r} must map names to objects")
        return {str(k): v for k, v in section.items()}

    ws = WorkspaceFile(ring_spec=doc.get("ring"), tasks=[], path=path,
                       **{section: named_section(section) for section in SECTIONS})

    problems: list[str] = []

    def check_ref(section: dict, ref, context: str):
        if not isinstance(ref, str) or ref not in section:
            problems.append(f"{context} references missing id {ref!r}")

    def require(ok: bool, context: str, key: str, what: str) -> None:
        if not ok:
            raise WorkspaceError(f"{path}: {context}: {key!r} must be {what}")

    for name, stanza in sorted(ws.semigroupoids.items()):
        ctx = f"semigroupoid {name!r}"
        arrows = stanza.get("arrows", [])
        require(isinstance(stanza.get("vertices", []), list), ctx, "vertices", "a list")
        require(isinstance(arrows, list) and all(isinstance(a, dict) for a in arrows),
                ctx, "arrows", "a list of objects")
        require(_is_matrix(stanza.get("prod", [])), ctx, "prod", "a list of [a, b, ab] lists")
        require(isinstance(stanza.get("inv", {}), dict), ctx, "inv", "an object of arrow ids")

    def arrow_ids(ref) -> set[str] | None:
        sgpd = ws.semigroupoids.get(ref) if isinstance(ref, str) else None
        return None if sgpd is None else {str(a.get("id")) for a in sgpd.get("arrows", [])}

    for name, stanza in sorted(ws.homomorphisms.items()):
        ctx = f"homomorphism {name!r}"
        check_ref(ws.semigroupoids, stanza.get("source"), ctx)
        check_ref(ws.semigroupoids, stanza.get("target"), ctx)
        require(isinstance(stanza.get("map", {}), dict), ctx, "map", "an object of arrow ids")
    for name, stanza in sorted(ws.actions.items()):
        ctx = f"action {name!r}"
        check_ref(ws.semigroupoids, stanza.get("actor"), ctx)
        check_ref(ws.semigroupoids, stanza.get("space"), ctx)
        require(_object_of(stanza.get("maps", {}), lambda e: isinstance(e, dict) and all(
                    isinstance(e.get(k, []), list) for k in ("dom", "img"))),
                ctx, "maps", "an object of {'dom': [...], 'img': [...]} objects")
    for name, stanza in sorted(ws.bundles.items()):
        ctx = f"bundle {name!r}"
        check_ref(ws.semigroupoids, stanza.get("base"), ctx)
        require(_object_of(stanza.get("ranks", {}), lambda v: (
                    not isinstance(v, bool) and isinstance(v, int) and v >= 0)),
                ctx, "ranks", "an object mapping arrow ids to non-negative integers")
        for key in ("constants", "twist"):
            require(isinstance(stanza.get(key, {}), dict), ctx, key, "an object")
    for name, stanza in sorted(ws.bundle_actions.items()):
        ctx = f"bundle action {name!r}"
        check_ref(ws.actions, stanza.get("action"), ctx)
        check_ref(ws.bundles, stanza.get("bundle"), ctx)
        fibers = stanza.get("fibers", {})
        require(_object_of(fibers, lambda per: _object_of(per, _is_matrix)),
                ctx, "fibers", "an object of {space arrow: matrix} objects")
        ref = stanza.get("action")
        action = ws.actions.get(ref) if isinstance(ref, str) else None
        actor_ids = arrow_ids(action.get("actor")) if action else None
        space_ids = arrow_ids(action.get("space")) if action else None
        for s_name, per_arrow in sorted(fibers.items()):
            if actor_ids is not None and s_name not in actor_ids:
                problems.append(f"{ctx} gives fibers for unknown actor arrow {s_name!r}")
            for g_name in sorted(per_arrow):
                if space_ids is not None and g_name not in space_ids:
                    problems.append(f"{ctx} gives fibers for unknown space arrow {g_name!r}")
    for name, stanza in sorted(ws.congruences.items()):
        ctx = f"congruence {name!r}"
        check_ref(ws.semigroupoids, stanza.get("base"), ctx)
        require(_is_matrix(stanza.get("classes", [])), ctx, "classes", "a list of lists")
        require(_object_of(stanza.get("transports", {}), _is_matrix),
                ctx, "transports", "an object mapping arrow ids to matrices")

    raw_tasks = doc.get("tasks", [])
    if not isinstance(raw_tasks, list):
        raise WorkspaceError(f"{path}: 'tasks' must be a list")
    for idx, raw in enumerate(raw_tasks):
        if not isinstance(raw, dict) or raw.get("kind") not in TASK_KINDS:
            raise WorkspaceError(f"{path}: task {idx} must have a kind from {TASK_KINDS}")
        task = Task(kind=raw["kind"], params=dict(raw), id=str(raw.get("id", "")))
        spec = _spec(task)
        if spec is None:
            key = _ENTRY_KEY[task.kind]
            raise WorkspaceError(f"{path}: task {idx} names unknown {key} {raw.get(key)!r}")
        ctx = f"task {idx} ({task.kind})"
        found = len(problems)
        homes = {}
        for param, sections in spec.refs.items():
            ref = raw.get(param)
            declared = [s for s in SECTIONS if isinstance(ref, str) and ref in getattr(ws, s)]
            homes[param] = next((s for s in declared if s in sections), None)
            if not declared:
                problems.append(f"{ctx} references missing id {ref!r}")
            elif homes[param] is None:
                problems.append(f"{ctx}: {param!r} must name an id from "
                                f"{' or '.join(sections)}, not {ref!r} from "
                                f"{' and '.join(declared)}")
        bases = [] if len(problems) > found else [
            _base_of(ws, homes[p], raw[p]) for p in spec.same_base]
        # a base that names no semigroupoid is already reported as missing
        known = all(isinstance(b, str) and b in ws.semigroupoids for b in bases)
        if known and len(set(bases)) > 1:
            problems.append(f"{ctx}: {' and '.join(map(repr, spec.same_base))} must lie "
                            f"over one base semigroupoid, not {' and '.join(map(repr, bases))}")
        try:
            spec.vet(raw)
        except WorkspaceError as exc:
            raise WorkspaceError(f"{path}: {ctx}: {exc}")
        ws.tasks.append(task)

    if problems:
        raise WorkspaceError(f"{path or '<workspace>'}: " + "; ".join(problems))
    return ws


# The stanza key naming the semigroupoid a structure lives on, for the
# sections whose structures a task may need to share a base.
_BASE_KEY = {"bundles": "base", "homomorphisms": "source", "congruences": "base"}


def _base_of(ws: WorkspaceFile, section: str, ref: str):
    """The base semigroupoid id of a declared structure; a semigroupoid is its own."""
    return ref if section == "semigroupoids" else getattr(ws, section)[ref].get(_BASE_KEY[section])


def _is_matrix(value) -> bool:
    """A list of lists: how matrices, product tables and class lists are written."""
    return isinstance(value, list) and all(isinstance(row, list) for row in value)


def _object_of(value, test) -> bool:
    return isinstance(value, dict) and all(test(v) for v in value.values())


class Builder:
    """Lazily builds and memoizes validated structures from a workspace."""

    def __init__(self, ws: WorkspaceFile, ring: Ring):
        self.ws = ws
        self.ring = ring
        self._cache: dict = {}

    def _memo(self, key, thunk):
        if key not in self._cache:
            self._cache[key] = thunk()
        return self._cache[key]

    def semigroupoid(self, name: str):
        def build():
            stanza = dict(self.ws.semigroupoids[name])
            stanza.setdefault("id", name)
            return validate_semigroupoid(stanza)
        return self._memo(("sgpd", name), build)

    def inverse(self, name: str):
        def build():
            stanza = self.ws.semigroupoids[name]
            if "inv" not in stanza:
                raise StructureError(ValidationReport.single(
                    f"inverse semigroupoid {name}", "structural", (name,),
                    f"semigroupoid {name!r} declares no inv table"))
            return validate_inverse_semigroupoid(self.semigroupoid(name), stanza["inv"])
        return self._memo(("inv", name), build)

    def homomorphism(self, name: str):
        def build():
            stanza = self.ws.homomorphisms[name]
            return validate_homomorphism(
                stanza.get("map", {}),
                self.semigroupoid(stanza["source"]),
                self.semigroupoid(stanza["target"]),
            )
        return self._memo(("hom", name), build)

    def action(self, name: str):
        def build():
            stanza = self.ws.actions[name]
            return validate_preaction(
                stanza.get("maps", {}),
                self.inverse(stanza["actor"]),
                self.semigroupoid(stanza["space"]),
            )
        return self._memo(("action", name), build)

    def bundle(self, name: str):
        def build():
            stanza = self.ws.bundles[name]
            return validate_bundle(stanza, self.ring, self.semigroupoid(stanza["base"]))
        return self._memo(("bundle", name), build)

    def bundle_action(self, name: str):
        def build():
            if name in self.ws.bundle_actions:
                stanza = self.ws.bundle_actions[name]
                theta = self.action(stanza["action"])
                bundle = self.bundle(stanza["bundle"])
                fibers = {}
                for s_name, per_arrow in stanza.get("fibers", {}).items():
                    s = theta.actor.base.arrow_index(str(s_name))
                    for g_name, mat in per_arrow.items():
                        g = theta.space.arrow_index(str(g_name))
                        fibers[(s, g)] = mat
                return validate_bundle_action(theta, bundle, fibers)
            return coefficient_action(self.action(name), self.ring)
        return self._memo(("baction", name), build)

    def congruence(self, name: str):
        def build():
            stanza = self.ws.congruences[name]
            return validate_rigid_congruence(
                stanza.get("classes", []), self.semigroupoid(stanza["base"])
            )
        return self._memo(("cong", name), build)

    def bundle_congruence(self, cong_name: str, bundle_name: str):
        def build():
            stanza = self.ws.congruences[cong_name]
            return validate_bundle_congruence(
                self.bundle(bundle_name),
                self.congruence(cong_name),
                stanza.get("transports", {}),
            )
        return self._memo(("bcong", cong_name, bundle_name), build)


# Every section of named structures, in `sectional validate` order, with the
# noun its summaries use and the Builder method that validates one entry.
SECTIONS = {
    "semigroupoids": ("semigroupoid", Builder.semigroupoid),
    "homomorphisms": ("homomorphism", Builder.homomorphism),
    "actions": ("action", Builder.action),
    "bundles": ("bundle", Builder.bundle),
    "congruences": ("congruence", Builder.congruence),
    "bundle_actions": ("bundle action", Builder.bundle_action),
}


def structure_checks(builder: Builder, only: str | None = None):
    """(summary, check) for each validation `sectional validate` runs, in
    SECTIONS order: one per declared structure, plus the inverse structure of
    a semigroupoid with `inv`. With `only`, just those of the structures
    declared under that id."""
    for section, (noun, build) in SECTIONS.items():
        for name in getattr(builder.ws, section):
            if only is None or name == only:
                yield f"validate {noun} {name}", partial(build, builder, name)
                if section == "semigroupoids" and "inv" in builder.ws.semigroupoids[name]:
                    yield f"validate inverse structure {name}", partial(builder.inverse, name)


class TaskResult:
    """status is pass, fail or capability."""

    def __init__(self, index: int, kind: str, summary: str, status: str, data: dict | None = None,
                 checks: list | None = None, witness: list | None = None, message: str = "",
                 wall_time_ms: float | None = None):
        self.index, self.kind, self.summary, self.status = index, kind, summary, status
        self.data = {} if data is None else data
        self.checks = [] if checks is None else checks
        self.witness = [] if witness is None else witness
        self.message, self.wall_time_ms = message, wall_time_ms

    def to_json(self) -> dict:
        out = {
            "index": self.index,
            "kind": self.kind,
            "summary": self.summary,
            "status": self.status,
            "data": self.data,
        }
        if self.checks:
            out["checks"] = self.checks
        if self.witness:
            out["witness"] = self.witness
        if self.message:
            out["message"] = self.message
        if self.wall_time_ms is not None:
            out["wall_time_ms"] = self.wall_time_ms
        return out


def _convolution_args(params: dict) -> tuple[int, int]:
    """The task's `triples` (default 200) and `seed` (default 0), checked and
    echoed in its data; the basis decides alone, so neither is used."""
    triples, seed = params.get("triples", 200), params.get("seed", 0)
    if any(isinstance(x, bool) or not isinstance(x, int)
           for x in (triples, seed)) or triples < 0:
        raise WorkspaceError("'triples' must be a non-negative integer and 'seed' an integer")
    return triples, seed


def _convolution(builder: Builder, params: dict) -> dict:
    """Associativity of convolution, decided on the basis sections. convolve is
    additive in each argument and R-bilinear over Q and Z/n; over a
    non-commutative ring validate_bundle admits only rank-1 fibers with central
    constants (_check_twists). So each triple's (ab)c - a(bc) is a sum of x y z
    times basis associators, and every triple associates exactly when
    convolve's own table of basis sections does. The witness is its first
    failing basis triple, named as sectional_algebra names basis sections."""
    bundle = builder.bundle(params["bundle"])
    triples, seed = _convolution_args(params)
    labels, names = basis_sections(bundle)
    at, deltas = label_index(labels), [delta_section(bundle, a, index=i) for a, i in labels]
    table = {(p, q): {at[(c, k)]: x for c, v in convolve(deltas[p], deltas[q]).values.items()
                      for k, x in v.items()} for p, q in composable_labels(bundle.base, labels)}
    basis = AlgebraPresentation.from_table(bundle.ring, names, table, labels=labels)
    witness = basis.check_associativity()
    return {"status": "fail" if witness else "pass",
            "data": {"triples": triples, "seed": seed}, "witness": list(witness or ())}


def _certified(*certs) -> dict:
    """One report per task: the first certificate's data, every check, and
    the first failure across the certificates as the witness."""
    fail = next((c for cert in certs for c in cert.checks if not c.ok), None)
    return {"status": "pass" if fail is None else "fail",
            "data": dict(certs[0].data),
            "checks": [c.to_json() for cert in certs for c in cert.checks],
            "witness": [] if fail is None else [str(w) for w in fail.witness]}


def _crossed(builder: Builder, params: dict) -> dict:
    res = crossed_theorem(builder.bundle_action(params["action"]))
    return _certified(res.certificate, res.lscript_certificate)


def _built(sgpd) -> dict:
    return {"status": "pass", "data": {"structure": semigroupoid_to_raw(sgpd),
                                       "arrows": sgpd.n_arrows,
                                       "vertices": sgpd.n_vertices}}


def _validate(builder: Builder, params: dict) -> dict:
    for _summary, check in structure_checks(builder, params["target"]):
        check()
    return {"status": "pass"}


class TaskSpec:
    """One kind of task: the sections each id parameter may name, the
    parameters whose structures must lie over one base semigroupoid, a
    check of its other parameters that raises WorkspaceError, and the run
    that turns a Builder and the task's parameters (with the run's seed
    under "seed" unless the task sets one; no task draws, and only
    convolution echoes it) into TaskResult fields."""

    def __init__(self, refs: dict[str, tuple[str, ...]], run: Callable[[Builder, dict], dict],
                 same_base: tuple[str, ...] = (),
                 vet: Callable[[dict], object] = lambda params: None):
        self.refs, self.run, self.same_base, self.vet = refs, run, same_base, vet


TASKS: dict[str, dict[str, TaskSpec]] = {
    "validate": {"": TaskSpec({"target": tuple(SECTIONS)}, _validate)},
    "build": {
        "semidirect": TaskSpec(
            {"action": ("actions",)},
            lambda b, p: _built(semidirect_product(b.action(p["action"])))),
        "germ": TaskSpec(
            {"action": ("actions",)},
            lambda b, p: _built(germ_quotient(b.action(p["action"])).quotient)),
        "quotient": TaskSpec(
            {"congruence": ("congruences",)},
            lambda b, p: _built(quotient_semigroupoid(b.congruence(p["congruence"]))[0])),
        "direct_product": TaskSpec(
            {"left": ("semigroupoids",), "right": ("semigroupoids",)},
            lambda b, p: _built(direct_product(b.semigroupoid(p["left"]),
                                               b.semigroupoid(p["right"])))),
        "skew": TaskSpec(
            {"base": ("semigroupoids",), "grading": ("homomorphisms",)},
            lambda b, p: _built(skew_product(b.semigroupoid(p["base"]),
                                             b.homomorphism(p["grading"])).semigroupoid),
            same_base=("base", "grading")),
    },
    "verify": {
        "tensor": TaskSpec(
            {"bundle": ("bundles",), "factor": ("semigroupoids",)},
            lambda b, p: _certified(tensor_theorem(b.bundle(p["bundle"]),
                                                   b.semigroupoid(p["factor"])).certificate)),
        "crossed": TaskSpec({"action": ("bundle_actions", "actions")}, _crossed),
        "smash": TaskSpec(
            {"bundle": ("bundles",), "grading": ("homomorphisms",)},
            lambda b, p: _certified(smash_theorem(b.bundle(p["bundle"]),
                                                  b.homomorphism(p["grading"])).certificate),
            same_base=("bundle", "grading")),
        "quotient": TaskSpec(
            {"bundle": ("bundles",), "congruence": ("congruences",)},
            lambda b, p: _certified(quotient_map_and_kernel(
                b.bundle_congruence(p["congruence"], p["bundle"])).certificate),
            same_base=("bundle", "congruence")),
        "germ": TaskSpec(
            {"action": ("actions",)},
            lambda b, p: _certified(germ_corollary(b.action(p["action"]), b.ring).certificate)),
        "convolution": TaskSpec({"bundle": ("bundles",)}, _convolution, vet=_convolution_args),
    },
}
TASK_KINDS = tuple(TASKS)
THEOREMS = tuple(TASKS["verify"])
BUILD_OPS = tuple(TASKS["build"])
# The parameter naming a verify or build task's entry, and its summary; a
# validate task has one entry, and its summary names the `target`.
_ENTRY_KEY = {"verify": "theorem", "build": "op"}


def _spec(task: Task) -> TaskSpec | None:
    """The entry a task runs, or None when it names none."""
    key = _ENTRY_KEY.get(task.kind)
    name = task.params.get(key) if key else ""
    return TASKS[task.kind].get(name) if isinstance(name, str) else None


def execute_task(builder: Builder, task: Task, index: int, seed: int = 0) -> TaskResult:
    """Run one task; refusals become results as `run_guarded` maps them."""
    summary = f"{task.kind} {task.params.get(_ENTRY_KEY.get(task.kind, 'target'))}"

    def run() -> TaskResult:
        fields = _spec(task).run(builder, {"seed": seed, **task.params})
        result = TaskResult(index, task.kind, summary, **fields)
        result.data.setdefault("instance", _instance_ids(task.params))
        return result

    return run_guarded(index, task.kind, summary, run)


def run_guarded(index: int, kind: str, summary: str, run) -> TaskResult:
    """run()'s result, or the refusal it raised as a result: a CapabilityError
    has status "capability", also when a pipeline stage raised it, and any
    other SectionalError "fail" with the witness it carries."""
    try:
        return run()
    except CapabilityError as exc:
        return TaskResult(index, kind, summary, "capability", message=str(exc))
    except StageError as exc:
        if isinstance(exc.cause, CapabilityError):
            return TaskResult(index, kind, summary, "capability",
                              data={"stage": exc.stage}, message=str(exc))
        witness = []
        if isinstance(exc.cause, StructureError):
            f = exc.cause.report.first()
            witness = list(f.witness) if f else []
        return TaskResult(index, kind, summary, "fail",
                          data={"stage": exc.stage}, witness=witness,
                          message=str(exc))
    except StructureError as exc:
        f = exc.report.first()
        return TaskResult(index, kind, summary, "fail",
                          witness=list(f.witness) if f else [],
                          message=exc.report.summary())
    except SectionalError as exc:
        return TaskResult(index, kind, summary, "fail", message=str(exc))


def _instance_ids(params: dict) -> dict:
    """The structure ids a task references, echoed into its report entry."""
    return {
        k: v for k, v in params.items()
        if k != "kind" and isinstance(v, (str, int))
    }


def workspace_ring(ws: WorkspaceFile, override: Ring | None = None) -> Ring:
    """The override, else the workspace's own ring, else Q."""
    if override is not None:
        return override
    return validate_ring({"kind": "q"} if ws.ring_spec is None else ws.ring_spec)


def run_workspace(ws: WorkspaceFile, selector: str = "all", seed: int = 0,
                  ring_override: Ring | None = None, timing: bool = True) -> dict:
    """Execute the workspace's tasks (filtered by selector) and report.

    Selector "all" runs every task in file order; a theorem name runs only the
    matching verify tasks.
    """
    ring = workspace_ring(ws, ring_override)

    chosen = [(i, t) for i, t in enumerate(ws.tasks)
              if selector == "all" or t.kind == "verify" and t.theorem == selector]

    builder = Builder(ws, ring)
    results = []
    for index, task in chosen:
        start = time.perf_counter()
        res = execute_task(builder, task, index, seed)
        if timing:
            res.wall_time_ms = round((time.perf_counter() - start) * 1000.0, 3)
        results.append(res)

    return {
        "path": ws.path,
        "ring": ring.describe(),
        "selector": selector,
        "tasks": [r.to_json() for r in results],
        "ok": all(r.status == "pass" for r in results),
        "matched_tasks": len(results),
    }
