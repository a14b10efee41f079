"""Workflow compiler: YAML plan → immutable, pre-compiled operator tree.

The reference interprets raw YAML dicts and re-compiles every regex on every
use (reference: kg_text_to_ttl/text_to_turtle_processor.py:703-722 dispatch,
re.compile at :1233, :1287, :1396, :1518-1520, :1737). This engine compiles the
whole plan ONCE on the driver into a picklable tree of op dataclasses with
pre-compiled patterns; the tree is shipped to every extraction task with
its arguments (broadcast small-side state) and never mutated.

Keyword precedence is identical to the reference's ordered
``keyword_2_method`` table (text_to_turtle_processor.py:2764-2799): the first
keyword present in a step dict selects the operation.

Validation that the reference performs at run time
(``_get_step_attr`` :2681-2696) happens here at compile time whenever the
attribute is static.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

import yaml

__all__ = ["compile_workflow", "compile_workflow_file", "CompiledPlan", "PlanError"]


class PlanError(Exception):
    """A workflow failed to compile."""


# RE flag names, reference text_to_turtle_processor.py:2728-2741
_FLAG_BY_NAME = {
    "I": re.IGNORECASE, "IGNORECASE": re.IGNORECASE,
    "L": re.LOCALE, "LOCALE": re.LOCALE,
    "A": re.ASCII, "ASCII": re.ASCII,
    "M": re.MULTILINE, "MULTILINE": re.MULTILINE,
    "S": re.DOTALL, "DOTALL": re.DOTALL,
    "X": re.VERBOSE, "VERBOSE": re.VERBOSE,
}


def resolve_flags(flags_src: str | None, init: int = 0) -> int:
    """Flag string → re flags int (reference :2743-2760)."""
    if flags_src is None:
        return init
    flags = init
    for name in re.split(r"\s+", flags_src):
        v = _FLAG_BY_NAME.get(name)
        if v is None:
            raise PlanError(f"Invalid RE flag: {name}")
        flags |= v
    return flags


def _attr(step: dict, name: str, expected_type=None, optional: bool = False):
    """Mirror of the reference's ``_get_step_attr`` (:2681-2696)."""
    value = step.get(name)
    if value is None:
        if optional:
            return None
        raise PlanError(f"Expected step attribute '{name}' missing in {step!r}")
    if expected_type is not None and not isinstance(value, expected_type):
        raise PlanError(
            f"Step attribute '{name}' has invalid type; expected {expected_type} in {step!r}"
        )
    return value


def _compile_patterns(pattern, flags: int, where: str) -> tuple[re.Pattern, ...]:
    """A pattern attr may be one RE or a list of REs; returns a tuple."""
    if isinstance(pattern, str):
        return (re.compile(pattern, flags),)
    if isinstance(pattern, list):
        out = []
        for p in pattern:
            if not isinstance(p, str):
                raise PlanError(f"{where}: pattern list element {p!r} is not a string")
            out.append(re.compile(p, flags))
        return tuple(out)
    raise PlanError(f"{where}: pattern {pattern!r} is neither a string nor a list")


# --------------------------------------------------------------------------
# Op dataclasses. ``Seq`` is a tuple of ops.


@dataclass(frozen=True)
class NopOp:
    pass


@dataclass(frozen=True)
class DescOp:
    text: str


@dataclass(frozen=True)
class EchoOp:
    text: str


@dataclass(frozen=True)
class DumpOp:
    what: str
    file: str | None


@dataclass(frozen=True)
class AnyOfOp:
    steps: tuple


@dataclass(frozen=True)
class SetOp:
    var: str
    to: Any
    eval_expr: str | None
    imports: str | None


@dataclass(frozen=True)
class ClearOp:
    var: str


@dataclass(frozen=True)
class AppendOp:
    var: str
    element: Any


@dataclass(frozen=True)
class ForEachOp:
    list_var: str
    as_id: str | None
    steps: tuple


@dataclass(frozen=True)
class ExecOp:
    code: str


@dataclass(frozen=True)
class IfOp:
    condition: Any
    steps: tuple


@dataclass(frozen=True)
class IfDefOp:
    condition: str
    steps: tuple
    negate: bool


@dataclass(frozen=True)
class SaveAsOp:
    file_name: str | None
    bucket_name: str | None = None


@dataclass(frozen=True)
class ProcDefOp:
    name: str
    steps: tuple


@dataclass(frozen=True)
class CallOp:
    name: str
    args: tuple[tuple[str, Any], ...]
    returns: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ReplaceOp:
    pattern: re.Pattern
    replacement: str


@dataclass(frozen=True)
class MatchOp:
    patterns: tuple[re.Pattern, ...]
    as_id: str | None
    steps: tuple


@dataclass(frozen=True)
class MatchEveryOp:
    pattern: re.Pattern
    as_id: str | None
    steps: tuple
    first_steps: tuple | None


@dataclass(frozen=True)
class WithinOp:
    patterns: tuple[re.Pattern, ...]
    group: int
    as_id: str | None
    steps: tuple


@dataclass(frozen=True)
class WithinEveryOp:
    pattern: re.Pattern
    group: int
    as_id: str | None
    steps: tuple
    first_steps: tuple | None


@dataclass(frozen=True)
class WithOp:
    text: Any
    steps: tuple


@dataclass(frozen=True)
class SeqSpec:
    """One alternative / step of a sequence-of (reference :1505-1532)."""
    patterns: tuple[re.Pattern, ...]
    as_id: str | None
    group: int | None
    steps: tuple


@dataclass(frozen=True)
class SequenceOfOp:
    seq_id: str
    alternatives: tuple[SeqSpec, ...] | None
    steps: tuple[SeqSpec, ...] | None


@dataclass(frozen=True)
class Match1Op:
    pattern_1: re.Pattern
    pattern_2: re.Pattern
    group_1: int
    group_2: int
    id_1: str | None
    id_2: str | None
    id_header: str | None
    id_leading: str | None
    steps: tuple
    first_steps: tuple | None
    leading_steps: tuple | None


@dataclass(frozen=True)
class MatchDimensionsOp:
    patterns: tuple[re.Pattern, ...]
    dimensions: tuple[str, ...] | None
    cell_id: str | None
    steps: tuple
    pre_steps: tuple | None
    loc_steps: tuple[tuple[str, tuple], ...]  # ("do-1-*", seq) pairs


@dataclass(frozen=True)
class TagDimensionOp:
    dim_no: Any
    at_index: Any
    tag_name: str


@dataclass(frozen=True)
class BreakOp:
    pass


@dataclass(frozen=True)
class PrefixOp:
    prefix: str
    iri: str


@dataclass(frozen=True)
class MappingOp:
    name: str
    exact: tuple[tuple[str, Any], ...]
    regex_pairs: tuple[tuple[re.Pattern, str], ...]
    ignore_case: bool


@dataclass(frozen=True)
class MapOp:
    value: str
    apply: str
    to_var: str | None


@dataclass(frozen=True)
class SelectOp:
    select_vars: tuple[str, ...]
    graph_id: str
    where: str
    aliases: tuple[str, ...]
    steps: tuple | None
    else_steps: tuple | None
    # Remote-endpoint HTTP basic auth (reference query_graph :2130-2151);
    # a leading ``$`` defers to an environment variable at execution time.
    username: str | None = None
    password: str | None = None


@dataclass(frozen=True)
class ObjectSpec:
    """Object value of a triple: scalar, structured dict, or op-sequence."""
    scalar: Any = None
    structured: tuple[tuple[str, Any], ...] | None = None
    op_seq: tuple | None = None


@dataclass(frozen=True)
class TripleOp:
    subject: str | None
    predicate: str | None
    inverse: str | None
    obj: ObjectSpec | None
    predicates: tuple["TripleOp", ...] | None
    objects: tuple["TripleOp", ...] | None


@dataclass(frozen=True)
class CompiledPlan:
    """Immutable compiled workflow; broadcast to extraction tasks.

    ``trigger`` (engine extension, no reference analogue): an optional
    pre-compiled routing pattern — the extraction stage skips this workflow
    entirely for documents where it cannot match, so specialist workflows
    cost nothing on the 90% of pages they do not apply to. Only safe when
    the workflow can never win best-of selection without the trigger text
    (the author's contract)."""
    steps: tuple
    name: str = "workflow"
    source: str = ""
    trigger: re.Pattern | None = None


# --------------------------------------------------------------------------
# Compiler


def _compile_seq(plan: list, path: str) -> tuple:
    if plan is None:
        raise PlanError(f"{path}: missing operation list")
    if not isinstance(plan, list):
        raise PlanError(f"{path}: expected a list of operations, got {type(plan)}")
    if not plan:
        raise PlanError(f"{path}: empty operation list")
    return tuple(_compile_step(step, f"{path}[{i}]") for i, step in enumerate(plan))


def _compile_opt_seq(plan, path: str) -> tuple | None:
    if plan is None:
        return None
    return _compile_seq(plan, path)


def _compile_object_spec(value, path: str) -> ObjectSpec:
    if isinstance(value, dict):
        # Structured literal; validate like _parse_literal (:2375-2394).
        known = {"text", "iri", "lang", "integer", "float", "bool", "date",
                 "datetime", "format", "apply"}
        for key in value:
            if key not in known:
                raise PlanError(f"{path}: unknown object attribute '{key}'")
        for key in known:
            v = value.get(key)
            if v is not None and not isinstance(v, str):
                raise PlanError(
                    f"{path}: object attribute '{key}' must be a string (got {type(v)})"
                )
        ndef = [a for a in ("text", "iri", "integer", "float", "bool") if value.get(a) is not None]
        if len(ndef) > 1:
            raise PlanError(f"{path}: object has multiple value attributes: {', '.join(ndef)}")
        if len(ndef) < 1:
            raise PlanError(
                f"{path}: object has no value attribute "
                "(expected one of text:, iri:, integer:, float:, bool:)"
            )
        return ObjectSpec(structured=tuple(sorted(value.items())))
    if isinstance(value, list):
        return ObjectSpec(op_seq=_compile_seq(value, f"{path}.object[]"))
    return ObjectSpec(scalar=value)


def _compile_triple(step: dict, path: str, nested: str | None = None) -> TripleOp:
    subject = _attr(step, "subject", str, optional=True)
    predicate = _attr(step, "predicate", str, optional=True)
    obj = step.get("object")
    predicates = _attr(step, "predicates", list, optional=True)
    objects = _attr(step, "objects", list, optional=True)
    inverse = _attr(step, "inverse", str, optional=True)

    # Static validation mirroring def_triple (:2266-2301). Nested levels get
    # implied subject/predicate at run time, so only top-level absence is an
    # error here.
    if nested is None:
        if not subject:
            raise PlanError(f"{path}: no subject defined in {step!r}")
        if not (predicate or predicates):
            raise PlanError(f"{path}: no predicate defined in {step!r}")
    if obj is not None and objects:
        raise PlanError(f"{path}: trying to define single object and object list")
    if (obj is not None or objects) and predicates:
        raise PlanError(f"{path}: object defined next to multiple predicates")
    if inverse and not predicate:
        raise PlanError(f"{path}: inverse definition not tied to predicate")
    if nested == "predicates" and subject:
        raise PlanError(f"{path}: trying to redefine subject")
    if nested == "objects" and (subject or predicate or predicates):
        raise PlanError(f"{path}: object list entry redefines subject/predicate")

    return TripleOp(
        subject=subject,
        predicate=predicate,
        inverse=inverse,
        obj=_compile_object_spec(obj, path) if obj is not None else None,
        predicates=tuple(
            _compile_triple(p, f"{path}.predicates[{i}]", nested="predicates")
            for i, p in enumerate(predicates)
        ) if predicates else None,
        objects=tuple(
            _compile_triple(o, f"{path}.objects[{i}]", nested="objects")
            for i, o in enumerate(objects)
        ) if objects else None,
    )


def _compile_seq_specs(src: list, flags_default: int, path: str) -> tuple[SeqSpec, ...]:
    specs = []
    for i, alt in enumerate(src):
        if not isinstance(alt, dict):
            raise PlanError(f"{path}[{i}]: alternative/step is not a dict")
        pattern = _attr(alt, "match")
        flags = resolve_flags(_attr(alt, "flags", str, optional=True), flags_default)
        sub = _compile_seq(_attr(alt, "do", list), f"{path}[{i}].do")
        as_id = _attr(alt, "as", str, optional=True)
        group = _attr(alt, "within-group", int, optional=True)
        specs.append(
            SeqSpec(
                patterns=_compile_patterns(pattern, flags, f"{path}[{i}]"),
                as_id=as_id,
                group=group,
                steps=sub,
            )
        )
    return tuple(specs)


_RE_LOC_STEP = re.compile(r"do-(\*|[0-9A-Za-z_]+)-(\*|[0-9A-Za-z_]+)")


def _compile_step(step, path: str):
    if not isinstance(step, dict):
        raise PlanError(f"{path}: plan step {step!r} is not a dict")

    # Keyword precedence identical to the reference table (:2764-2799).
    if "pass" in step:
        return NopOp()
    if "any-of" in step:
        return AnyOfOp(steps=_compile_seq(_attr(step, "any-of", list), f"{path}.any-of"))
    if "set" in step:
        var = _attr(step, "set", str)
        to = step.get("to")
        expr = _attr(step, "eval", str, optional=True)
        imps = _attr(step, "import", str, optional=True)
        if to is None and expr is None:
            raise PlanError(f"{path}: neither to: nor eval: provided for set {var}")
        if to is not None and expr is not None:
            raise PlanError(f"{path}: both to: and eval: provided for set {var}")
        return SetOp(var=var, to=to, eval_expr=expr, imports=imps)
    if "clear" in step:
        return ClearOp(var=_attr(step, "clear", str))
    if "append" in step:
        return AppendOp(var=_attr(step, "append", str), element=_attr(step, "element"))
    if "for-each" in step:
        return ForEachOp(
            list_var=_attr(step, "for-each"),
            as_id=_attr(step, "as", str, optional=True),
            steps=_compile_seq(_attr(step, "do", list), f"{path}.do"),
        )
    if "exec" in step:
        return ExecOp(code=_attr(step, "exec", str))
    if "if" in step:
        return IfOp(condition=_attr(step, "if"),
                    steps=_compile_seq(_attr(step, "do", list), f"{path}.do"))
    if "ifdef" in step:
        return IfDefOp(condition=_attr(step, "ifdef"),
                       steps=_compile_seq(_attr(step, "do", list), f"{path}.do"),
                       negate=False)
    if "ifndef" in step:
        return IfDefOp(condition=_attr(step, "ifndef"),
                       steps=_compile_seq(_attr(step, "do", list), f"{path}.do"),
                       negate=True)
    if "save-as" in step:
        target = _attr(step, "save-as")
        if isinstance(target, dict):
            f_name = _attr(target, "file", str, optional=True)
            b_name = _attr(target, "bucket", str, optional=True)
            if f_name is None and b_name is None:
                raise PlanError(f"{path}: neither 'file' nor 'bucket' for save-as")
        else:
            f_name = target
            b_name = None
        return SaveAsOp(file_name=f_name, bucket_name=b_name)
    if "procedure" in step:
        return ProcDefOp(name=_attr(step, "procedure", str),
                         steps=_compile_seq(_attr(step, "do", list), f"{path}.do"))
    if "call" in step:
        args = _attr(step, "with", dict, optional=True) or {}
        rtn = _attr(step, "return", dict, optional=True) or {}
        return CallOp(name=_attr(step, "call"),
                      args=tuple(args.items()),
                      returns=tuple(rtn.items()))
    if "replace" in step:
        # replace: always DOTALL, no flags attr (reference :1204).
        return ReplaceOp(
            pattern=re.compile(_attr(step, "replace", str), re.DOTALL),
            replacement=_attr(step, "with", str),
        )
    if "match" in step:
        flags = resolve_flags(_attr(step, "flags", str, optional=True), re.DOTALL)
        return MatchOp(
            patterns=_compile_patterns(_attr(step, "match"), flags, path),
            as_id=_attr(step, "as", str, optional=True),
            steps=_compile_seq(_attr(step, "do", list), f"{path}.do"),
        )
    if "match-every" in step:
        flags = resolve_flags(_attr(step, "flags", str, optional=True), re.DOTALL)
        pattern = _attr(step, "match-every")
        if not isinstance(pattern, str):
            raise PlanError(f"{path}: match-every pattern must be a single RE string")
        return MatchEveryOp(
            pattern=re.compile(pattern, flags),
            as_id=_attr(step, "as", str, optional=True),
            steps=_compile_seq(_attr(step, "do", list), f"{path}.do"),
            first_steps=_compile_opt_seq(step.get("first"), f"{path}.first"),
        )
    if "within" in step:
        flags = resolve_flags(_attr(step, "flags", str, optional=True), re.DOTALL)
        return WithinOp(
            patterns=_compile_patterns(_attr(step, "within"), flags, path),
            group=_attr(step, "group", int, optional=True) or 1,
            as_id=_attr(step, "as", str, optional=True),
            steps=_compile_seq(_attr(step, "do", list), f"{path}.do"),
        )
    if "within-every" in step:
        flags = resolve_flags(_attr(step, "flags", str, optional=True), re.DOTALL)
        pattern = _attr(step, "within-every")
        if not isinstance(pattern, str):
            raise PlanError(f"{path}: within-every pattern must be a single RE string")
        return WithinEveryOp(
            pattern=re.compile(pattern, flags),
            group=_attr(step, "group", int, optional=True) or 1,
            as_id=_attr(step, "as", str, optional=True),
            steps=_compile_seq(_attr(step, "do", list), f"{path}.do"),
            first_steps=_compile_opt_seq(step.get("first"), f"{path}.first"),
        )
    if "with" in step:
        return WithOp(text=_attr(step, "with"),
                      steps=_compile_seq(_attr(step, "do", list), f"{path}.do"))
    if "sequence-of" in step:
        seq_id = step.get("sequence-of") or "<unnamed>"
        alternatives = _attr(step, "alternatives", list, optional=True)
        steps = _attr(step, "steps", list, optional=True)
        if alternatives is None and steps is None:
            raise PlanError(f"{path}: neither 'alternatives' nor 'steps' for sequence-of {seq_id}")
        if alternatives is not None and steps is not None:
            raise PlanError(f"{path}: both 'alternatives' and 'steps' for sequence-of {seq_id}")
        return SequenceOfOp(
            seq_id=str(seq_id),
            alternatives=_compile_seq_specs(alternatives, re.DOTALL, f"{path}.alternatives")
            if alternatives is not None else None,
            steps=_compile_seq_specs(steps, re.DOTALL, f"{path}.steps")
            if steps is not None else None,
        )
    if "match-1" in step:
        flags = resolve_flags(_attr(step, "flags", str, optional=True), re.DOTALL)
        return Match1Op(
            pattern_1=re.compile(_attr(step, "match-1", str), flags),
            pattern_2=re.compile(_attr(step, "match-2", str), flags),
            group_1=_attr(step, "group-1", int, optional=True) or 1,
            group_2=_attr(step, "group-2", int, optional=True) or 1,
            id_1=_attr(step, "as-1", str, optional=True),
            id_2=_attr(step, "as-2", str, optional=True),
            id_header=_attr(step, "header-as", str, optional=True),
            id_leading=_attr(step, "leading-as", str, optional=True),
            steps=_compile_seq(_attr(step, "do", list), f"{path}.do"),
            first_steps=_compile_opt_seq(step.get("first"), f"{path}.first"),
            leading_steps=_compile_opt_seq(step.get("leading"), f"{path}.leading"),
        )
    if "match-dimensions" in step:
        flags = resolve_flags(_attr(step, "flags", str, optional=True), re.DOTALL)
        patterns = _attr(step, "match-dimensions", list)
        dims = _attr(step, "dimensions", list, optional=True)
        if dims is not None and len(dims) != len(patterns):
            raise PlanError(f"{path}: dimensions name list length != match-dimensions length")
        loc = []
        for name, value in step.items():
            if _RE_LOC_STEP.match(name):
                loc.append((name, _compile_seq(value, f"{path}.{name}")))
        return MatchDimensionsOp(
            patterns=tuple(re.compile(p, flags) for p in patterns),
            dimensions=tuple(dims) if dims else None,
            cell_id=_attr(step, "as", str, optional=True),
            steps=_compile_seq(_attr(step, "do", list), f"{path}.do"),
            pre_steps=_compile_opt_seq(step.get("pre"), f"{path}.pre"),
            loc_steps=tuple(loc),
        )
    if "tag-dimension" in step:
        return TagDimensionOp(
            dim_no=_attr(step, "tag-dimension"),
            at_index=_attr(step, "at"),
            tag_name=_attr(step, "as", str),
        )
    if "break" in step:
        return BreakOp()
    if "prefix" in step:
        return PrefixOp(prefix=_attr(step, "prefix", str), iri=_attr(step, "iri", str))
    if "mapping" in step:
        name = _attr(step, "mapping", str)
        pairs = _attr(step, "pairs", list)
        flags = resolve_flags(_attr(step, "flags", str, optional=True))
        ignore_case = bool(flags & re.IGNORECASE)
        exact: dict[str, Any] = {}
        regex_pairs: list[tuple[re.Pattern, str]] = []
        for p in pairs:
            if not isinstance(p, dict):
                raise PlanError(f"{path}: mapping element {p!r} is not a dict")
            f_text, f_re, f_to = p.get("from"), p.get("re"), p.get("to")
            if f_to is None:
                raise PlanError(f"{path}: mapping element {p!r} has no 'to' attribute")
            if f_text:
                if f_re:
                    raise PlanError(f"{path}: mapping element has both 'from' and 're'")
                exact[f_text] = f_to
                if ignore_case:
                    exact[f_text.lower()] = f_to
            elif f_re:
                regex_pairs.append((re.compile(f_re), f_to))
            else:
                raise PlanError(f"{path}: mapping element has neither 'from' nor 're'")
        return MappingOp(name=name, exact=tuple(exact.items()),
                         regex_pairs=tuple(regex_pairs), ignore_case=ignore_case)
    if "map" in step:
        return MapOp(value=_attr(step, "map", str),
                     apply=_attr(step, "apply", str),
                     to_var=step.get("to"))
    if "select" in step:
        selection = _attr(step, "select", str)
        var_ids = _attr(step, "as", str, optional=True) or selection
        return SelectOp(
            select_vars=tuple(re.split(r"\s+", selection.strip())),
            graph_id=_attr(step, "from", str),
            where=_attr(step, "where", str),
            aliases=tuple(re.split(r"\s+", var_ids.strip())),
            steps=_compile_opt_seq(step.get("do"), f"{path}.do"),
            # Deviation from the reference: else: takes a list of operations
            # (the reference types it str and then crashes executing it,
            # :2132 + :2167 — unusable as shipped).
            else_steps=_compile_opt_seq(step.get("else"), f"{path}.else"),
            username=_attr(step, "username", str, optional=True),
            password=_attr(step, "password", str, optional=True),
        )
    if "subject" in step or "predicate" in step or "object" in step:
        return _compile_triple(step, path)
    if "echo" in step:
        return EchoOp(text=_attr(step, "echo", str))
    if "desc" in step:
        return DescOp(text=_attr(step, "desc", str))
    if "dump" in step:
        return DumpOp(what=_attr(step, "dump", str),
                      file=_attr(step, "file", str, optional=True))
    raise PlanError(f"{path}: no operation key found in step: {step!r}")


def compile_workflow(plan: list | str, name: str = "workflow") -> CompiledPlan:
    """Compile a workflow given as YAML text or an already-parsed list."""
    source = ""
    if isinstance(plan, str):
        source = plan
        plan = yaml.safe_load(plan)
    if plan is None:
        plan = []
    if not isinstance(plan, list):
        raise PlanError(f"Workflow top level must be a list, got {type(plan)}")
    trigger = None
    body = []
    for step in plan:
        if isinstance(step, dict) and set(step) == {"trigger"}:
            trigger = re.compile(_attr(step, "trigger", str), re.DOTALL)
            continue
        body.append(step)
    steps = tuple(_compile_step(step, f"$[{i}]") for i, step in enumerate(body))
    return CompiledPlan(steps=steps, name=name, source=source, trigger=trigger)


def compile_workflow_file(path: str) -> CompiledPlan:
    with open(path, "r", encoding="utf8") as fh:
        text = fh.read()
    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return compile_workflow(text, name=name)
