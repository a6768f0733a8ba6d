"""The op log's format: one row per recorded memory-system verb.

A tracer built with ``access_log=True`` makes a :class:`MemorySystem`
record the entry of every verb below as a ``mem.*`` event at
``clock.now``, with the fields the row encodes from the call's
arguments; :func:`repro.workloads.trace.replay_events` waits until each
entry time and re-issues the verb with the arguments the row decodes.
``MemorySystem._bind_access_log`` reads this table and nothing else: a
new verb is one row.

Nesting rule: a call made while another logged call of the same system
is still running is not logged, because replaying the outer call
re-derives it (a batch's single prefetches, a hybrid promote's
``open_section`` inside an ``access``, a plan's section, a
degradation's ``close_section``).
"""

from __future__ import annotations

from repro.cache.config import SectionConfig


def logged(system) -> bool:
    """Is an op log bound to ``system``, i.e. are its wrappers installed?"""
    return "access" in vars(system)


def _range(obj_id, offset, size):
    return {"obj": obj_id, "off": offset, "size": size}


def _range_args(ev):
    return ev["obj"], ev["off"], ev["size"]


def _obj(obj_id):
    return {"obj": obj_id}


def _obj_args(ev):
    return (ev["obj"],)


def _access(obj_id, offset, size, is_write, native=False):
    fields = {"obj": obj_id, "off": offset, "size": size, "w": is_write}
    return {**fields, "nat": True} if native else fields


def _alloc(size, elem_size=8, name="", alloc_site="", attrs=None):
    fields = {"size": size, "elem": elem_size, "name": name}
    return {**fields, "attrs": attrs} if attrs else fields


def _section(config, **fields):
    return {"sec": config.name, "cfg": config.to_fields(), **fields}


def _config(ev):
    return SectionConfig.from_fields(ev["cfg"])


#: event kind -> (verb, fields(*args, **kwargs) of a call, replay args of
#: an event); the encoders take the verbs' own parameter names
OP_LOG = {
    "mem.access": (
        "access",
        _access,
        lambda ev: (*_range_args(ev), bool(ev["w"]), bool(ev.get("nat", False))),
    ),
    "mem.alloc": (
        "allocate",
        _alloc,
        lambda ev: (ev["size"], ev["elem"], ev.get("name", ""), "", ev.get("attrs")),
    ),
    "mem.free": ("free", _obj, _obj_args),
    "mem.open": (
        "open_section",
        lambda config, obj_ids, per_thread=0: _section(
            config, ids=list(obj_ids), pt=per_thread
        ),
        lambda ev: (_config(ev), list(ev["ids"]), ev["pt"]),
    ),
    "mem.close": ("close_section", lambda name: {"sec": name}, lambda ev: (ev["sec"],)),
    "mem.plan": (
        "plan_group",
        lambda config, names, per_thread=0, path="object": _section(
            config, names=list(names), pt=per_thread, path=path
        ),
        lambda ev: (_config(ev), list(ev["names"]), ev["pt"], ev["path"]),
    ),
    "mem.prefetch": ("prefetch", _range, _range_args),
    "mem.flush": ("flush", _range, _range_args),
    "mem.evict": ("evict_hint", _range, _range_args),
    "mem.evict_trail": (
        "evict_hint_trailing",
        lambda obj_id, offset: {"obj": obj_id, "off": offset},
        lambda ev: (ev["obj"], ev["off"]),
    ),
    "mem.discard": ("discard", _obj, _obj_args),
    "mem.batch": (
        "prefetch_batch",
        lambda items: {"items": [[o, off, sz] for o, off, sz in items]},
        lambda ev: ([tuple(item) for item in ev["items"]],),
    ),
    "mem.native": (
        "set_native",
        lambda obj_id, native: {"obj": obj_id, "on": native},
        lambda ev: (ev["obj"], bool(ev["on"])),
    ),
}
