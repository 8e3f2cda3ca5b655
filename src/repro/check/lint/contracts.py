"""Contract rules (CON3xx): interface obligations the type system can't see.

* **CON301** — every direct ``Metric`` subclass implements ``distance``.
  The metric axioms are the API contract of the whole index (paper §2,
  Definition 1); a subclass silently inheriting ``raise NotImplementedError``
  only fails at query time.
* **CON302** — every ``@dataclass`` message type (name ending in
  ``Message``) is registered with the transport's trace schema
  (:func:`repro.sim.messages.register_message`), so trace consumers can
  rely on the schema covering every message that can appear on the wire.
* **CON303** — every ``@register_message`` dataclass declares
  ``slots=True``.  Messages are the highest-volume allocation in a
  simulation; a slotted instance skips the per-object ``__dict__``, and one
  unslotted message type silently costs the event loop its footprint win.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.check.lint.engine import LintContext, ModuleInfo, Rule, rule
from repro.check.lint.findings import Finding

__all__ = ["MetricInterfaceRule", "MessageSchemaRule", "MessageSlotsRule"]

#: dotted names that resolve to the Metric base class
_METRIC_BASES = {"Metric", "repro.metric.Metric", "repro.metric.base.Metric"}


def _in_repro(module: ModuleInfo) -> bool:
    return module.module is not None and (
        module.module == "repro" or module.module.startswith("repro.")
    )


def _decorator_names(cls: ast.ClassDef, module: ModuleInfo) -> set[str]:
    names: set[str] = set()
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        resolved = module.resolve(target)
        if resolved:
            names.add(resolved)
            names.add(resolved.rsplit(".", 1)[-1])
        elif isinstance(target, ast.Name):
            names.add(target.id)  # bound in this module (e.g. same-file decorator)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


@rule
class MetricInterfaceRule(Rule):
    id = "CON301"
    name = "metric-distance-interface"
    rationale = (
        "Metric is the black-box distance contract (Definition 1); a "
        "direct subclass without `distance` ships a metric that raises "
        "NotImplementedError at query time."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _in_repro(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._derives_from_metric(node, module):
                continue
            if not self._defines(node, "distance"):
                yield module.finding(
                    self.id, node,
                    f"Metric subclass `{node.name}` does not define "
                    "`distance(self, x, y)` — the black-box contract of "
                    "every index layer",
                )

    @staticmethod
    def _derives_from_metric(node: ast.ClassDef, module: ModuleInfo) -> bool:
        for base in node.bases:
            resolved = module.resolve(base)
            if resolved in _METRIC_BASES:
                return True
        return False

    @staticmethod
    def _defines(node: ast.ClassDef, name: str) -> bool:
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == name:
                return True
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in stmt.targets
            ):
                return True
        return False


@rule
class MessageSchemaRule(Rule):
    id = "CON302"
    name = "message-trace-schema"
    rationale = (
        "Trace consumers (replay diffing, CI "
        "artifact dashboards) need a schema for every message dataclass; "
        "registration keeps the schema exhaustive by construction."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _in_repro(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not node.name.endswith("Message"):
                continue
            decorators = _decorator_names(node, module)
            if "dataclass" not in decorators:
                continue
            if "register_message" not in decorators:
                yield module.finding(
                    self.id, node,
                    f"message dataclass `{node.name}` is not registered with "
                    "the transport trace schema — decorate it with "
                    "@register_message (repro.sim.messages)",
                )


@rule
class MessageSlotsRule(Rule):
    id = "CON303"
    name = "message-dataclass-slots"
    rationale = (
        "Messages dominate simulation allocations; `@dataclass(slots=True)` "
        "drops the per-instance __dict__, and one unslotted type quietly "
        "forfeits the event loop's memory footprint."
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not _in_repro(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if "register_message" not in _decorator_names(node, module):
                continue
            if not self._dataclass_has_slots(node, module):
                yield module.finding(
                    self.id, node,
                    f"registered message `{node.name}` is not slotted — "
                    "declare it with @dataclass(slots=True)",
                )

    @staticmethod
    def _dataclass_has_slots(node: ast.ClassDef, module: ModuleInfo) -> bool:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            resolved = module.resolve(target)
            name = (resolved or "").rsplit(".", 1)[-1] or (
                target.id if isinstance(target, ast.Name) else
                target.attr if isinstance(target, ast.Attribute) else ""
            )
            if name != "dataclass":
                continue
            if not isinstance(dec, ast.Call):
                return False  # bare @dataclass — no slots
            for kw in dec.keywords:
                if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                    return kw.value.value is True
            return False
        return False
