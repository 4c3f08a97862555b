"""Functions generated from source lines, and the records built per sample, frame or decision.

`define` compiles one function from its body lines. The KPM codec is generated
with it from the field table, and so is each record's `__init__`: `record`
makes a class a frozen dataclass with slots, whose `__init__` sets each slot
through the slot descriptor's bound `__set__` (a frozen class's `__setattr__`
refuses every write) and then checks the record. A generated line per field
costs what a hand-written one would, where the dataclass `__init__` of a
frozen class goes through `object.__setattr__` by name for every field.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields


def define(name: str, params: str, doc: str, body: list[str], namespace: dict | None = None):
    """Function name(params) compiled from its docstring and body lines; namespace holds its globals."""
    source = f"def {name}({params}):\n    {doc!r}\n" + "".join(f"    {line}\n" for line in body)
    namespace = dict(namespace or {})
    exec(compile(source, f"<ranguard {name}>", "exec"), namespace)
    return namespace[name]


def record(cls):
    """Class decorator: a frozen dataclass with slots and a generated `__init__`.

    The `__init__` takes every field, in order, by position or by name (a
    record field takes no default), and sets each slot. Then the class's
    `__post_init__`, if it has one, checks the record and raises on a bad one.
    """
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    fs = fields(cls)
    for f in fs:
        if f.default is not MISSING or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field takes no default")
    namespace = {f"_set_{f.name}": cls.__dict__[f.name].__set__ for f in fs}
    body = [f"_set_{f.name}(self, {f.name})" for f in fs]
    check = cls.__dict__.get("__post_init__")
    if check is not None:
        namespace["_check"] = check
        body.append("_check(self)")
    doc = f"Set each field of a {cls.__name__}, then check it."
    init = define("__init__", ", ".join(["self"] + [f.name for f in fs]), doc, body, namespace)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
