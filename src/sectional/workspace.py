"""Structure-definition files: parsing, reference resolution, task execution.

A workspace is a single JSON document holding a coefficient ring, named
structures (semigroupoids with optional inverse tables, homomorphisms,
actions, bundles, bundle actions, congruences), and an ordered task list.
Parsing performs structural validation only (shapes and id references);
semantics run when a task touches a structure.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .actions import (
    germ_quotient,
    quotient_semigroupoid,
    semidirect_product,
    validate_preaction,
    validate_rigid_congruence,
)
from .bundles import (
    Section,
    convolve,
    trivial_bundle,
    validate_bundle,
)
from .rings import Ring, ring_from_spec
from .semigroupoids import (
    direct_product,
    semigroupoid_to_raw,
    validate_homomorphism,
    validate_inverse_semigroupoid,
    validate_semigroupoid,
)
from .theorems import (
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
    must,
)

TASK_KINDS = ("validate", "build", "verify")
THEOREMS = ("tensor", "crossed", "smash", "quotient", "germ", "convolution")
BUILD_OPS = ("semidirect", "germ", "quotient", "direct_product", "skew")


class WorkspaceError(SectionalError):
    """Structural problem in a workspace file (parse error or dangling id)."""


@dataclass
class Task:
    kind: str
    params: dict
    id: str = ""

    @property
    def theorem(self) -> str:
        return self.params.get("theorem", "")


@dataclass
class WorkspaceFile:
    ring_spec: dict | None
    semigroupoids: dict[str, dict]
    homomorphisms: dict[str, dict]
    actions: dict[str, dict]
    bundles: dict[str, dict]
    bundle_actions: dict[str, dict]
    congruences: dict[str, dict]
    tasks: list[Task]
    path: str = ""


def parse_workspace(text: str, path: str = "") -> WorkspaceFile:
    """Parse and structurally validate one workspace document.

    Raises WorkspaceError with a position annotation on malformed JSON and a
    list of missing ids on dangling references. Semantic validation (axiom
    checks) is deferred to task execution.
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
    if not isinstance(doc, dict):
        raise WorkspaceError(f"{path or '<workspace>'}: top level must be an object")

    def named_section(key: str) -> dict[str, dict]:
        section = doc.get(key, {})
        if not isinstance(section, dict) or any(
            not isinstance(v, dict) for v in section.values()
        ):
            raise WorkspaceError(f"{path}: section {key!r} must map names to objects")
        return {str(k): v for k, v in section.items()}

    ws = WorkspaceFile(
        ring_spec=doc.get("ring"),
        semigroupoids=named_section("semigroupoids"),
        homomorphisms=named_section("homomorphisms"),
        actions=named_section("actions"),
        bundles=named_section("bundles"),
        bundle_actions=named_section("bundle_actions"),
        congruences=named_section("congruences"),
        tasks=[],
        path=path,
    )

    dangling: list[str] = []

    def check_ref(section: dict, ref, context: str):
        if not isinstance(ref, str) or ref not in section:
            dangling.append(f"{context} references missing id {ref!r}")

    def require(ok: bool, context: str, key: str, what: str) -> None:
        if not ok:
            raise WorkspaceError(f"{path}: {context}: {key!r} must be {what}")

    for name, stanza in ws.semigroupoids.items():
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

    for name, stanza in ws.homomorphisms.items():
        ctx = f"homomorphism {name!r}"
        check_ref(ws.semigroupoids, stanza.get("source"), ctx)
        check_ref(ws.semigroupoids, stanza.get("target"), ctx)
        require(isinstance(stanza.get("map", {}), dict), ctx, "map", "an object of arrow ids")
    for name, stanza in ws.actions.items():
        ctx = f"action {name!r}"
        check_ref(ws.semigroupoids, stanza.get("actor"), ctx)
        check_ref(ws.semigroupoids, stanza.get("space"), ctx)
        require(_object_of(stanza.get("maps", {}), lambda e: isinstance(e, dict) and all(
                    isinstance(e.get(k, []), list) for k in ("dom", "img"))),
                ctx, "maps", "an object of {'dom': [...], 'img': [...]} objects")
    for name, stanza in ws.bundles.items():
        ctx = f"bundle {name!r}"
        check_ref(ws.semigroupoids, stanza.get("base"), ctx)
        require(_object_of(stanza.get("ranks", {}), lambda v: (
                    not isinstance(v, bool) and isinstance(v, int) and v >= 0)),
                ctx, "ranks", "an object mapping arrow ids to non-negative integers")
        for key in ("constants", "twist"):
            require(isinstance(stanza.get(key, {}), dict), ctx, key, "an object")
    for name, stanza in ws.bundle_actions.items():
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
        for s_name, per_arrow in fibers.items():
            if actor_ids is not None and s_name not in actor_ids:
                dangling.append(f"{ctx} gives fibers for unknown actor arrow {s_name!r}")
            for g_name in per_arrow:
                if space_ids is not None and g_name not in space_ids:
                    dangling.append(f"{ctx} gives fibers for unknown space arrow {g_name!r}")
    for name, stanza in ws.congruences.items():
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
            raise WorkspaceError(
                f"{path}: task {idx} must have a kind from {TASK_KINDS}"
            )
        task = Task(kind=raw["kind"], params=dict(raw), id=str(raw.get("id", "")))
        ctx = f"task {idx} ({task.kind})"
        if task.kind == "validate":
            target = raw.get("target")
            known = (
                set(ws.semigroupoids) | set(ws.actions) | set(ws.bundles)
                | set(ws.congruences) | set(ws.homomorphisms) | set(ws.bundle_actions)
            )
            if not isinstance(target, str) or target not in known:
                dangling.append(f"{ctx} references missing id {target!r}")
        elif task.kind == "verify":
            theorem = raw.get("theorem")
            if theorem not in THEOREMS:
                raise WorkspaceError(
                    f"{path}: task {idx} names unknown theorem {theorem!r}"
                )
            if theorem in ("tensor", "smash", "quotient", "convolution"):
                check_ref(ws.bundles, raw.get("bundle"), ctx)
            if theorem == "convolution":
                triples, seed = raw.get("triples", 0), raw.get("seed", 0)
                if any(isinstance(x, bool) or not isinstance(x, int)
                       for x in (triples, seed)) or triples < 0:
                    raise WorkspaceError(f"{path}: {ctx}: 'triples' must be a non-negative "
                                         "integer and 'seed' an integer")
            if theorem == "tensor":
                check_ref(ws.semigroupoids, raw.get("factor"), ctx)
            if theorem == "smash":
                check_ref(ws.homomorphisms, raw.get("grading"), ctx)
            if theorem == "quotient":
                check_ref(ws.congruences, raw.get("congruence"), ctx)
            if theorem in ("crossed", "germ"):
                ref = raw.get("action")
                if not isinstance(ref, str) or (
                    ref not in ws.bundle_actions and ref not in ws.actions
                ):
                    dangling.append(f"{ctx} references missing id {ref!r}")
        elif task.kind == "build":
            op = raw.get("op")
            if op not in BUILD_OPS:
                raise WorkspaceError(
                    f"{path}: task {idx} names unknown build op {op!r}"
                )
            if op in ("semidirect", "germ"):
                check_ref(ws.actions, raw.get("action"), ctx)
            elif op == "quotient":
                check_ref(ws.congruences, raw.get("congruence"), ctx)
            elif op == "direct_product":
                check_ref(ws.semigroupoids, raw.get("left"), ctx)
                check_ref(ws.semigroupoids, raw.get("right"), ctx)
            elif op == "skew":
                check_ref(ws.semigroupoids, raw.get("base"), ctx)
                check_ref(ws.homomorphisms, raw.get("grading"), ctx)
        ws.tasks.append(task)

    if dangling:
        raise WorkspaceError(f"{path or '<workspace>'}: " + "; ".join(dangling))
    return ws


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
            return must(validate_semigroupoid(stanza))
        return self._memo(("sgpd", name), build)

    def inverse(self, name: str):
        def build():
            stanza = self.ws.semigroupoids[name]
            if "inv" not in stanza:
                raise StructureError(ValidationReport.single(
                    f"inverse semigroupoid {name}", "structural", (name,),
                    f"semigroupoid {name!r} declares no inv table"))
            return must(validate_inverse_semigroupoid(
                self.semigroupoid(name), stanza["inv"]
            ))
        return self._memo(("inv", name), build)

    def homomorphism(self, name: str):
        def build():
            stanza = self.ws.homomorphisms[name]
            return must(validate_homomorphism(
                stanza.get("map", {}),
                self.semigroupoid(stanza["source"]),
                self.semigroupoid(stanza["target"]),
            ))
        return self._memo(("hom", name), build)

    def action(self, name: str):
        def build():
            stanza = self.ws.actions[name]
            return must(validate_preaction(
                stanza.get("maps", {}),
                self.inverse(stanza["actor"]),
                self.semigroupoid(stanza["space"]),
            ))
        return self._memo(("action", name), build)

    def bundle(self, name: str):
        def build():
            stanza = self.ws.bundles[name]
            return must(validate_bundle(
                stanza, self.ring, self.semigroupoid(stanza["base"])
            ))
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
                return must(validate_bundle_action(theta, bundle, fibers))
            theta = self.action(name)
            bundle = trivial_bundle(self.ring, theta.space)
            return must(validate_bundle_action(theta, bundle, None))
        return self._memo(("baction", name), build)

    def congruence(self, name: str):
        def build():
            stanza = self.ws.congruences[name]
            return must(validate_rigid_congruence(
                stanza.get("classes", []), self.semigroupoid(stanza["base"])
            ))
        return self._memo(("cong", name), build)

    def bundle_congruence(self, cong_name: str, bundle_name: str):
        def build():
            stanza = self.ws.congruences[cong_name]
            return must(validate_bundle_congruence(
                self.bundle(bundle_name),
                self.congruence(cong_name),
                stanza.get("transports", {}),
            ))
        return self._memo(("bcong", cong_name, bundle_name), build)


@dataclass
class TaskResult:
    index: int
    kind: str
    summary: str
    status: str                 # pass | fail | capability
    data: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    witness: list = field(default_factory=list)
    message: str = ""
    wall_time_ms: float | None = None

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


def _random_section(bundle, rnd) -> Section:
    values = {}
    for arrow in bundle.base.arrows():
        values[arrow] = dict(enumerate(
            bundle.ring.sample(rnd) for _ in range(bundle.ranks[arrow])
        ))
    return Section(bundle, values)


def _convolution_task(bundle, triples: int, seed: int) -> tuple[bool, list]:
    rnd = random.Random(f"convolution:{seed}")
    for k in range(triples):
        a = _random_section(bundle, rnd)
        b = _random_section(bundle, rnd)
        c = _random_section(bundle, rnd)
        if convolve(convolve(a, b), c) != convolve(a, convolve(b, c)):
            return False, [f"triple {k}"]
    return True, []


def execute_task(builder: Builder, task: Task, index: int, seed: int) -> TaskResult:
    """Run one task; refusals become results as `run_guarded` maps them."""
    params = task.params

    def run() -> TaskResult:
        if task.kind == "validate":
            result = _run_validate(builder, params, index)
        elif task.kind == "build":
            result = _run_build(builder, params, index)
        else:
            result = _run_verify(builder, params, index, seed)
        result.data.setdefault("instance", _instance_ids(params))
        return result

    return run_guarded(index, task.kind, _summary(task), run)


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


def _summary(task: Task) -> str:
    if task.kind == "verify":
        return f"verify {task.theorem}"
    if task.kind == "build":
        return f"build {task.params.get('op')}"
    return f"validate {task.params.get('target')}"


def _run_validate(builder: Builder, params: dict, index: int) -> TaskResult:
    target = params["target"]
    ws = builder.ws
    if target in ws.semigroupoids:
        builder.semigroupoid(target)
        if "inv" in ws.semigroupoids[target]:
            builder.inverse(target)
    elif target in ws.actions:
        builder.action(target)
    elif target in ws.bundles:
        builder.bundle(target)
    elif target in ws.congruences:
        builder.congruence(target)
    elif target in ws.homomorphisms:
        builder.homomorphism(target)
    elif target in ws.bundle_actions:
        builder.bundle_action(target)
    return TaskResult(index, "validate", f"validate {target}", "pass")


def _run_build(builder: Builder, params: dict, index: int) -> TaskResult:
    op = params["op"]
    if op == "semidirect":
        sp = semidirect_product(builder.action(params["action"]))
        built = sp.semigroupoid
    elif op == "germ":
        germ = must(germ_quotient(builder.action(params["action"])))
        built = germ.quotient
    elif op == "quotient":
        built, _proj = quotient_semigroupoid(builder.congruence(params["congruence"]))
    elif op == "direct_product":
        built = direct_product(
            builder.semigroupoid(params["left"]),
            builder.semigroupoid(params["right"]),
        )
    elif op == "skew":
        built = skew_product(
            builder.semigroupoid(params["base"]),
            builder.homomorphism(params["grading"]),
        ).semigroupoid
    else:  # unreachable; parse_workspace vets ops
        raise WorkspaceError(f"unknown build op {op!r}")
    stanza = semigroupoid_to_raw(built)
    return TaskResult(index, "build", f"build {op}", "pass",
                      data={"structure": stanza,
                            "arrows": built.n_arrows,
                            "vertices": built.n_vertices})


def _run_verify(builder: Builder, params: dict, index: int, seed: int) -> TaskResult:
    theorem = params["theorem"]
    summary = f"verify {theorem}"
    if theorem == "convolution":
        bundle = builder.bundle(params["bundle"])
        triples = int(params.get("triples", 200))
        task_seed = int(params.get("seed", seed))
        ok, witness = _convolution_task(bundle, triples, task_seed)
        return TaskResult(index, "verify", summary, "pass" if ok else "fail",
                          data={"triples": triples, "seed": task_seed},
                          witness=witness)

    if theorem == "tensor":
        certs = [tensor_theorem(builder.bundle(params["bundle"]),
                                builder.semigroupoid(params["factor"])).certificate]
    elif theorem == "crossed":
        res = crossed_theorem(builder.bundle_action(params["action"]))
        certs = [res.certificate, res.lscript_certificate]
    elif theorem == "smash":
        certs = [smash_theorem(builder.bundle(params["bundle"]),
                               builder.homomorphism(params["grading"])).certificate]
    elif theorem == "quotient":
        bc = builder.bundle_congruence(params["congruence"], params["bundle"])
        certs = [quotient_map_and_kernel(bc).certificate]
    elif theorem == "germ":
        certs = [germ_corollary(builder.action(params["action"]), builder.ring).certificate]
    else:  # unreachable; parse_workspace vets theorems
        raise WorkspaceError(f"unknown theorem {theorem!r}")

    # one report per task: the first certificate's data, every check, and
    # the first failure across the certificates as the witness
    fail = next((c for cert in certs for c in cert.checks if not c.ok), None)
    return TaskResult(index, "verify", summary, "pass" if fail is None else "fail",
                      data=dict(certs[0].data),
                      checks=[c.to_json() for cert in certs for c in cert.checks],
                      witness=[] if fail is None else [str(w) for w in fail.witness])


def workspace_ring(ws: WorkspaceFile, override: Ring | None = None) -> Ring:
    """The override, else the workspace's own ring, else Q."""
    if override is not None:
        return override
    return ring_from_spec({"kind": "q"} if ws.ring_spec is None else ws.ring_spec)


def run_workspace(ws: WorkspaceFile, selector: str = "all", seed: int = 0,
                  ring_override: Ring | None = None, timing: bool = True) -> dict:
    """Execute the workspace's tasks (filtered by selector) and report.

    Selector "all" runs every task in file order; a theorem name runs only the
    matching verify tasks.
    """
    ring = workspace_ring(ws, ring_override)

    if selector == "all":
        chosen = list(enumerate(ws.tasks))
    else:
        chosen = [
            (i, t) for i, t in enumerate(ws.tasks)
            if t.kind == "verify" and t.theorem == selector
        ]

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
