"""Deterministic world-state ledger with transactional call frames.

One ``ChainState`` instance is the entire simulated world: native currency
balances, any number of fungible and non-fungible token ledgers, a logical
clock, installed protocol modules, and the committed event log.

The digest reads the event log only through its count and its hash chain
(``event_hash``), which links every committed event in order.  A long run
that reads nothing else of the log calls ``fold_events`` between
transactions: it continues the chain over the log and drops every event
but the last, keeping the folded count and the chain value at the fold,
so the log holds only the events since and every digest reads as before.

Every mutation flows through the journaled write helpers (``jset``,
``jsetattr``, ``jappend``, ...), each of which records one
``(container, key, old)`` entry in the undo journal.  Collection entries
are scalars or frozen values, such as auctions and proposals, that a write
replaces through ``jset`` on their dict or list.  A call frame is a
marker into the journal; rolling a frame back replays the entries in
reverse, so a transaction that raises leaves the committed state byte for
byte unchanged, events included.  A committed transaction's entries stay
readable as its write set, ``ChainState.last_writes``.  Frames nest:
``transact`` opens the outermost frame, ``call`` opens one per nested
module call, and native transfers execute recipient payment hooks inside
their own child frame so that a reverting hook fails only the transfer,
never the caller's frame directly.

The records on the transaction path, ``ExecutionContext``, ``Event`` and
``TxResult``, are ``NamedTuple``s built positionally: a step makes several
of them, and a tuple is the cheapest record to build.  None of them
changes once built; a ``TxResult`` holds the committed events as one slice
of the log.  An ``Event`` is ``(name, emitter, keys, values, frame,
tx_index)``: its payload's keys and values as two tuples, the keys one
tuple shared by every event with the same key set, since the log keeps
every event of a run that does not fold it.  ``Event.payload`` gives the
``(key, value)`` pairs, and ``canonical()`` and ``as_data()`` encode them
as pairs.

The state digest is incremental: ``digest()`` keeps a ``DigestCache`` of
canonical JSON fragments, and each write helper marks the one fragment it
touches (a collection entry, such as a balance or an auction, or one
module scalar), committed or rolled back, so a digest re-encodes only
those and joins their ancestors from cached pieces.  When nothing was
marked and the clock, genesis supply, event count and last event read as
before, the previous digest is served without work; when the marked
fragments encode to the bytes they had, as after a sound rollback, it is
served without hashing.  Frozen collection entries encode themselves
(``digest_json``, most of them built by ``record_encoder``) with the bytes
of ``canonical_json(normalize(entry))``.  ``full_digest()`` recomputes the
same bytes from the whole world with ``normalize`` and ``json``, without
relying on the journal or the entry encoders; ``digest()`` compares
against it every ``DIGEST_CHECK_INTERVAL`` calls, served digests included.

The revert-atomicity oracle asks ``unchanged_since(identity_snapshot())``:
the snapshot lists the digest document's objects, a dict or list by its
entries, and a later world that lists the very same objects (ints and strs
equal in value and type) has the same full digest, since every entry is
immutable in fact.  Only a world holding a different object hashes the
document rebuilt from the snapshot against ``full_digest()``.  Both the
snapshot and ``full_digest()`` come from one document recipe,
``_sections``.  A deep copy of a world copies each dict and list
of the ledgers and modules once, shallowly, and shares their entries.

Determinism: no wall clock, no ambient randomness, insertion-ordered dicts
only.  Identical genesis plus an identical transaction sequence produces an
identical state digest and event log.
"""

from __future__ import annotations

import copy
import hashlib
import json
from bisect import bisect_left
from itertools import islice
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter, is_
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import errors

Address = str

ZERO_ADDRESS: Address = "0x0"
MAX_CALL_DEPTH = 16

# the ``old`` of a journal entry whose key did not exist before the write
ABSENT: Any = object()

# one undo-journal entry: the written dict, object or list, the key,
# attribute name or list index, and the value it held before
JournalEntry = tuple[Any, Any, Any]

# cached digests between two full recomputes that cross-check the cache
DIGEST_CHECK_INTERVAL = 1_000

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# the event hash of an empty event log
_EMPTY_HASH = hashlib.sha256(b"").hexdigest()


def _chain(before: str, chained: str, events: Iterable["Event"]) -> tuple[str, str]:
    """The event hash ``chained`` extended by one link per event, the
    sha256 of the previous link followed by the event's canonical JSON,
    and the link before its last: ``before`` if there are no events."""
    for event in events:
        before, chained = chained, hashlib.sha256(
            (chained + event.canonical()).encode()).hexdigest()
    return before, chained


def canonical_json(data: Any) -> str:
    return _CANONICAL.encode(data)


def normalize(value: Any) -> Any:
    """Render a value as portable JSON data: ints become decimal strings.

    A record with ``as_data`` renders as its data, a ``NamedTuple`` record
    too; any other list or tuple renders as a list, and a read-only mapping
    as a dict.  Exact types are tested first, as they make up nearly all of
    a digest document.
    """
    kind = type(value)
    if kind is str or kind is bool or value is None:
        return value
    if kind is int:
        return str(value)
    if kind is dict:
        return {str(k): normalize(v) for k, v in value.items()}
    if kind is list or kind is tuple:
        return [normalize(v) for v in value]
    if hasattr(value, "as_data"):
        return normalize(value.as_data())
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [normalize(v) for v in value]
    if isinstance(value, (dict, MappingProxyType)):
        return {str(k): normalize(v) for k, v in value.items()}
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def digest_of(data: Any) -> str:
    """``sha256(canonical_json(normalize(data)))``, fed member by member
    for a dict and for each dict it holds, such as a digest document and
    its groups, so only one member is ever normalized at a time."""
    sha = hashlib.sha256()
    _feed(sha.update, data, 2)
    return sha.hexdigest()


def _feed(update: Callable[[bytes], Any], value: Any, depth: int) -> None:
    """Feed the canonical JSON of ``value`` to ``update``, a dict's members
    one by one down to ``depth`` levels."""
    if not depth or type(value) is not dict:
        update(canonical_json(normalize(value)).encode())
        return
    named = {str(k): v for k, v in value.items()}  # keys that render alike keep the last
    update(b"{")
    for i, key in enumerate(sorted(named)):
        update(b"," + _key(key) if i else _key(key))
        _feed(update, named[key], depth - 1)
    update(b"}")


def canonical_text(value: Any) -> str:
    """``canonical_json(normalize(value))``, encoded by exact type: a record
    with a ``digest_json`` method encodes itself; other types go through
    ``normalize``."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return '"%d"' % value
    if kind is dict or kind is MappingProxyType:
        named = {str(k): v for k, v in value.items()}  # keys that render alike keep the last
        return "{" + ",".join([_json_str(k) + ":" + canonical_text(named[k])
                               for k in sorted(named)]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([canonical_text(v) for v in value]) + "]"
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    encode = getattr(value, "digest_json", None)
    if encode is not None:
        return encode()
    return canonical_json(normalize(value))


def record_encoder(*names: str, **renamed: str) -> Callable[[Any], str]:
    """The ``digest_json`` method of a frozen record whose ``as_data`` holds
    attributes as they are, each of ``names`` under its own name and each
    of ``renamed`` under its keyword: ``canonical_json(normalize(record))``
    from one template, without building the data."""
    keys = {**{name: name for name in names}, **renamed}
    ordered = sorted(keys)
    template = "{" + ",".join(_json_str(key) + ":%s" for key in ordered) + "}"
    values = attrgetter(*[keys[key] for key in ordered])

    def digest_json(record: Any) -> str:
        return template % tuple(map(canonical_text, values(record)))

    return digest_json


def _key(name: str) -> bytes:
    return _json_str(name).encode() + b":"


class DigestCacheMismatch(RuntimeError):
    """A cached digest differs from the full recompute: some write to the
    world bypassed the journaled write helpers."""


# section values that a write replaces rather than changes in place
_IMMUTABLE = (int, str, bool, type(None))


def _containers(obj: Any) -> tuple:
    """An object and the dicts and lists it holds directly, or a bare dict
    or list."""
    if isinstance(obj, (dict, list)):
        return (obj,)
    return (obj, *(v for v in vars(obj).values() if isinstance(v, (dict, list))))


def _pair_name(pair: tuple) -> str:
    owner, spender = pair
    return f"{owner}|{spender}"


def _section_data(group: str, obj: Any) -> Any:
    """One section of the digest document, holding the world's dicts and
    lists live: the native balances, a fungible ledger (its allowances keyed
    by ``(owner, spender)``), an NFT ledger, or a module's snapshot."""
    if group == "native":
        return obj
    if group == "fungible":
        return {"supply": obj.total_supply, "balances": obj.balances,
                "allowances": obj.allowances}
    if group == "nft":
        return {"owners": obj.owners, "approvals": obj.approvals}
    return obj.snapshot_data()


def _rendered(group: str, data: Any) -> Any:
    """A section's data as the document holds it: a fungible ledger's
    allowances named ``owner|spender``."""
    if group != "fungible":
        return data
    return {**data, "allowances": {_pair_name(pair): v
                                   for pair, v in data["allowances"].items()}}


def _scalar_fields(clock: int, genesis_supply: int, event_count: int,
                   event_hash: str) -> dict:
    return {"clock": clock, "genesis_supply": genesis_supply,
            "event_count": event_count, "event_hash": event_hash}


class IdentitySnapshot(NamedTuple):
    """The digest document's objects at one moment, in document order, and
    the shape that puts them back into a document
    (``ChainState.identity_snapshot``).

    ``objects`` holds the clock, the genesis supply and the last event, the
    native balances' keys and then their values, and for each other section
    its group, its name, its keys and, per value, the value itself or a
    dict's keys and then its values or a list's items.  ``shape`` holds the
    event count, the number of native balances, and for each other section
    its number of keys and, per value, None or the dict or list type and
    its length.  The event log is append-only, so its count and last event
    stand for it, as they do for ``ChainState.event_hash``.
    """

    shape: list
    objects: list


def _assembled(scalars: dict, native: dict, sections: Iterable[tuple]) -> dict:
    """The digest document of its scalars, the native balances and the
    other sections, ``(group, name, data)`` as ``ChainState._sections``
    gives them."""
    doc = {**scalars, "native": native, "fungible": {}, "nft": {}, "modules": {}}
    for group, name, data in sections:
        doc[group][name] = _rendered(group, data)
    return doc


def _document_of(snapshot: IdentitySnapshot, event_hash: str) -> dict:
    """The digest document of ``snapshot``, the hash of its event log given."""
    objects, shape = iter(snapshot.objects), iter(snapshot.shape)

    def take(size: int) -> list:
        return list(islice(objects, size))

    def take_dict(size: int) -> dict:
        return dict(zip(take(size), take(size)))

    def sections() -> Iterator[tuple]:
        for group in objects:
            name, data = next(objects), {}
            for key in take(next(shape)):
                kind = next(shape)
                data[key] = (next(objects) if kind is None else take_dict(next(shape))
                             if kind is dict else take(next(shape)))
            yield group, name, data

    clock, genesis_supply, _ = take(3)
    scalars = _scalar_fields(clock, genesis_supply, next(shape), event_hash)
    return _assembled(scalars, take_dict(next(shape)), sections())


def _same_objects(old: IdentitySnapshot, new: IdentitySnapshot) -> bool:
    """Whether two snapshots hold the same objects in the same shape: the
    very same object or, for ints and strs, an equal one of the same type."""
    if old.shape != new.shape or len(old.objects) != len(new.objects):
        return False
    return all(map(is_, old.objects, new.objects)) or all(
        a is b or (type(a) is type(b) and type(a) in (int, str) and a == b)
        for a, b in zip(old.objects, new.objects))


class _Object:
    """A JSON object with fixed keys as the pieces its text is joined from:
    '{', then '"key":', fragment and ',' per key in sorted order, the last
    ',' being '}'.  ``slots`` indexes each key's fragment."""

    def __init__(self, names: Any) -> None:
        self.parts, self.slots = [b"{"], {}
        for name in sorted(names):
            self.slots[name] = len(self.parts) + 1
            self.parts += (_key(name), b"", b",")
        if self.slots:
            self.parts.pop()
        self.parts.append(b"}")

    def set(self, name: str, fragment: bytes) -> None:
        self.parts[self.slots[name]] = fragment

    def put(self, name: str, fragment: bytes) -> bool:
        """Set a key's fragment; whether it differs from the one it had."""
        slot = self.slots[name]
        if self.parts[slot] == fragment:
            return False
        self.parts[slot] = fragment
        return True

    def text(self) -> bytes:
        return b"".join(self.parts)


@dataclass(eq=False)
class _Collection:
    """A dict or list that a section holds live, as the pieces its text is
    joined from: '"name":fragment' in name order, or fragments."""

    container: dict | list
    name: Any  # renders an entry's key as its JSON name
    pieces: list[bytes] = field(default_factory=list)
    order: list[str] = field(default_factory=list)  # a dict's names, sorted
    text: bytes = b""
    dirty: set = field(default_factory=set)  # entry keys written since ``text``


@dataclass(eq=False)
class _Section:
    """One section: its data's values as last encoded into ``fields``, with
    the collections among them, or the one collection that it is."""

    group: str
    name: str  # its key in its group
    obj: Any
    values: dict[str, Any] = field(default_factory=dict)
    collections: dict[str, _Collection] = field(default_factory=dict)
    fields: _Object | None = None
    whole: _Collection | None = None
    text: bytes = b""
    stale: bool = True  # its data may hold new values
    written: set = field(default_factory=set)  # attributes of ``obj`` written since
    live: bool = True  # still a member of its group


_GROUPS = ("fungible", "nft", "modules")


class DigestCache:
    """Canonical JSON of the digest document, kept as encoded fragments and
    re-encoded only where written, and its hash, taken again only when the
    text changed.

    A section is the native ledger, one fungible or NFT ledger, or one
    module.  A dict or list that a section's data holds live (not a copy),
    such as the vault's auctions or a ledger's allowances, is a collection
    whose entries are fragments of their own; its other values are plain
    fragments.  Entries are never changed in place, so ``owners`` maps
    only containers, by id: a collection, where a write dirties the entry
    under its key, or the section's object and its other containers, where
    a write makes the section's data be read again and encoded where it
    holds new objects.  It keeps each container alive so that the id stays
    unique.  Only a write that puts a dict or list on the object makes the
    section register its containers again.  The write helpers call
    ``mark`` whether the write later commits or rolls back, so a rollback
    that fails to restore a value is encoded as it is.  New fragments go
    into their parents' cached pieces, and only ancestors whose pieces
    changed are joined again.

    ``digest`` serves the previous hash with no work when no write marked
    the cache since and the document's other inputs read as before: the
    clock, the genesis supply, the event count and the last event (which
    stands for the log, as in ``ChainState.event_hash``), and the members
    of each group.  When the marked fragments encode to the bytes they
    had, as after a sound rollback, it serves the previous hash without
    hashing.
    """

    def __init__(self) -> None:
        self.sections: dict[tuple[str, ...], _Section] = {}
        self.groups: dict[str, _Object] = {}
        # id -> (container, section, the collection it is or None)
        self.owners: dict[int, tuple[Any, _Section, _Collection | None]] = {}
        self.dirty: set[_Section] = set()
        self.top = _Object([*_scalar_fields(0, 0, 0, ""), "native", *_GROUPS])
        self.served = 0
        # what the latest digest read: the native balances, a copy of each
        # group, the scalars and the last event; and the hash it gave
        self.native = self.clock = self.supply = self.count = self.last = ABSENT
        self.members: tuple[dict, ...] = ()
        self.hex = ""

    def mark(self, container: Any, key: Any) -> None:
        owner = self.owners.get(id(container))
        if owner is not None:
            _, section, collection = owner
            self.dirty.add(section)
            if collection is not None:
                collection.dirty.add(key)
                return
            section.stale = True
            if container is section.obj:
                section.written.add(key)

    def digest(self, state: "ChainState") -> str:
        """The hex sha256 of ``state``'s digest document."""
        events = state.events
        count = state.event_count()
        last = events[-1] if events else None
        laid_out = state.native is self.native and self.members == (
            state.fungible, state.nft, state.modules)
        if not (laid_out and not self.dirty and count == self.count and last is self.last
                and state.clock == self.clock
                and state.genesis_native_supply == self.supply):
            if self._encode(state, count, last, laid_out):
                self.hex = hashlib.sha256(self.top.text()).hexdigest()
        return self.hex

    def _encode(self, state: "ChainState", count: int, last: Event | None,
                laid_out: bool) -> bool:
        """Encode what changed since the latest digest into ``top``;
        whether its text changed."""
        top = self.top
        joined = set() if laid_out else self._lay_out(state)  # groups to join again
        changed = bool(joined)
        dirty, self.dirty = self.dirty, set()
        for section in dirty:
            if not (section.live and self._render(section)):
                continue
            changed = True
            if section.group == "native":
                top.set("native", section.text)
            else:
                self.groups[section.group].set(section.name, section.text)
                joined.add(section.group)
        for group in joined:
            top.set(group, self.groups[group].text())
        if state.clock != self.clock:
            self.clock = state.clock
            changed |= top.put("clock", canonical_text(self.clock).encode())
        if state.genesis_native_supply != self.supply:
            self.supply = state.genesis_native_supply
            changed |= top.put("genesis_supply", canonical_text(self.supply).encode())
        if count != self.count or last is not self.last:
            self.count, self.last = count, last
            changed |= top.put("event_count", b'"%d"' % count)
            changed |= top.put("event_hash", _json_str(state.event_hash()).encode())
        return changed

    def _lay_out(self, state: "ChainState") -> set[str]:
        """Make a section of the native balances and of each group member
        that is new or another object; the groups whose members changed."""
        members = (state.fungible, state.nft, state.modules)
        if state.native is not self.native:
            self.native = state.native
            self._member(("native",), "native", state.native)
        joined = set()
        for group, live, seen in zip(_GROUPS, members, self.members or ({},) * len(_GROUPS)):
            if live == seen and group in self.groups:
                continue
            joined.add(group)
            for name in seen.keys() - live.keys():
                self.sections.pop((group, name)).live = False
            self.groups[group] = _Object(live)
            for name, obj in live.items():
                self.groups[group].set(name, self._member((group, name), group, obj).text)
        self.members = tuple(dict(live) for live in members)
        return joined

    def stale_section(self, state: "ChainState") -> str:
        """The first section whose cached fragment differs from a full render."""
        for key, section in self.sections.items():
            data = _rendered(section.group, _section_data(section.group, section.obj))
            full = canonical_json(normalize(data))
            if full.encode() != section.text:
                return ".".join(key)
        return "document"

    def _member(self, key: tuple[str, ...], group: str, obj: Any) -> _Section:
        section = self.sections.get(key)
        if section is None or section.obj is not obj:
            if section is not None:
                section.live = False
            section = self.sections[key] = _Section(group, key[-1], obj)
            self.dirty.add(section)
        return section

    def _render(self, section: _Section) -> bool:
        """Encode a marked section's written parts again; whether its text
        changed."""
        changed = section.stale and self._refresh(section)
        whole = section.whole
        if whole is not None:
            if whole.dirty:
                self._update(whole, whole.dirty)
            text = whole.text
        else:
            for name, collection in section.collections.items():
                if collection.dirty and self._update(collection, collection.dirty):
                    section.fields.set(name, collection.text)
                    changed = True
            text = section.fields.text() if changed else section.text
        if text == section.text:
            return False
        section.text = text
        return True

    def _refresh(self, section: _Section) -> bool:
        """Read a section's data again and encode the plain values that a
        write replaced; whether a fragment changed.  A dict or list written
        onto its object, a collection replaced, or data with other names
        lays the section out again."""
        obj, written = section.obj, section.written
        section.stale, section.written = False, set()
        if section.fields is None or any(
                isinstance(getattr(obj, name, None), (dict, list)) for name in written):
            return self._lay_out_section(section)
        data = _section_data(section.group, obj)
        values, collections = section.values, section.collections
        if data.keys() != values.keys():
            return self._lay_out_section(section)
        changed = False
        for name, value in data.items():
            if value is values[name] and (type(value) in _IMMUTABLE or name in collections):
                continue
            if name in collections or isinstance(value, (dict, list)):
                return self._lay_out_section(section)
            values[name] = value
            changed |= section.fields.put(name, canonical_text(value).encode())
        return changed

    def _lay_out_section(self, section: _Section) -> bool:
        """Read a section's data again and encode its new objects: plain
        values that a write replaced, and collections that are new; and
        register the containers its object holds."""
        obj = section.obj
        live = {id(c): c for c in _containers(obj)}
        data = _section_data(section.group, obj)
        if id(data) in live:  # the section is one collection
            data = {None: data}
        elif section.fields is None or data.keys() != section.values.keys():
            data = {str(k): v for k, v in data.items()}
            section.fields, section.values, section.collections = _Object(data), {}, {}
        values, collections = section.values, section.collections
        for name, value in data.items():
            if name in values and value is values[name] and (
                    type(value) in _IMMUTABLE or name in collections):
                continue
            values[name] = value
            if id(value) in live:
                pairs = section.group == "fungible" and name == "allowances"
                collection = collections[name] = _Collection(value, _pair_name if pairs else str)
                self.owners[id(value)] = (value, section, collection)
                self._update(collection, () if isinstance(value, list) else value)
                fragment = collection.text
            else:
                collections.pop(name, None)
                fragment = canonical_text(value).encode()
            if name is None:
                section.whole = collection
            else:
                section.fields.set(name, fragment)
        # a write to the object, or to a container it holds that is not a
        # collection, makes the section read its data again
        held = {id(collection.container) for collection in collections.values()}
        for container in live.values():
            if id(container) not in held:
                self.owners[id(container)] = (container, section, None)
        return True

    def _update(self, collection: _Collection, keys: Any, rebuild: bool = False) -> bool:
        """Encode the entries under ``keys`` again, in their order, and join
        the collection's text if a piece changed; whether one did."""
        container, pieces = collection.container, collection.pieces
        changed = not collection.text
        if isinstance(container, list):
            if len(pieces) > len(container):
                del pieces[len(container):]
                changed = True
            for i in keys:
                if i < len(pieces):
                    piece = canonical_text(container[i]).encode()
                    if piece != pieces[i]:
                        pieces[i] = piece
                        changed = True
            for i in range(len(pieces), len(container)):
                pieces.append(canonical_text(container[i]).encode())
                changed = True
            collection.dirty.clear()
            if changed:
                collection.text = b"[" + b",".join(pieces) + b"]"
            return changed
        order = collection.order
        for key in keys:
            name = collection.name(key)
            i = bisect_left(order, name)
            found = i < len(order) and order[i] == name
            if key in container:
                piece = _key(name) + canonical_text(container[key]).encode()
                if not found:
                    order.insert(i, name)
                    pieces.insert(i, piece)
                    changed = True
                elif pieces[i] != piece:
                    pieces[i] = piece
                    changed = True
            elif found:
                del order[i], pieces[i]
                changed = True
        collection.dirty.clear()
        if len(pieces) != len(container) and not rebuild:
            # keys that render alike: encoded in the container's order, the
            # last one stays, as normalize keeps it
            del order[:], pieces[:]
            return self._update(collection, list(container), rebuild=True)
        if changed:
            collection.text = b"{" + b",".join(pieces) + b"}"
        return changed


class ExecutionContext(NamedTuple):
    """Per-call frame view: who is calling, with how much attached value."""

    sender: Address
    value: int = 0
    depth: int = 0


class Event(NamedTuple):
    """One emitted event.  Events never change, so copies of a world share
    them, and the event hash chain may read them long after ``emit``.

    The payload is stored as two parallel tuples, its ``keys`` and its
    ``values``; ``emit`` interns ``keys``, so every event of one call site
    shares one tuple.  ``payload`` gives the ``(key, value)`` pairs."""

    name: str
    emitter: str
    keys: tuple[str, ...]
    values: tuple[Any, ...]
    frame: int
    tx_index: int

    def __deepcopy__(self, memo: dict) -> "Event":
        return self

    @property
    def payload(self) -> tuple[tuple[str, Any], ...]:
        return tuple(zip(self.keys, self.values))

    def canonical(self) -> str:
        """``canonical_json(self.as_data())``, encoded without building it
        from one template per payload key set: string names and payload
        keys, ``frame`` and ``tx`` as JSON numbers."""
        template = _EVENT_TEMPLATES.get(self.keys)
        if template is None:
            template = _EVENT_TEMPLATES[self.keys] = (
                '{"emitter":%s,"frame":%d,"name":%s,"payload":['
                + ",".join(["[" + _json_str(k).replace("%", "%%") + ",%s]"
                            for k in self.keys])
                + '],"tx":%d}')
        return template % (_json_str(self.emitter), self.frame, _json_str(self.name),
                           *map(canonical_text, self.values), self.tx_index)

    def as_data(self) -> dict:
        return {
            "name": self.name,
            "emitter": self.emitter,
            "payload": [[k, normalize(v)] for k, v in zip(self.keys, self.values)],
            "frame": self.frame,
            "tx": self.tx_index,
        }


# the interned ``keys`` of events, one tuple per payload key set; it holds
# only immutable tuples, one per key set an ``emit`` call site uses, so
# every world may share it and no result depends on it
_EVENT_KEYS: dict[tuple[str, ...], tuple[str, ...]] = {}
# the ``Event.canonical`` template of each payload key set; like
# ``_EVENT_KEYS`` it only grows by immutable strings, so no result depends on it
_EVENT_TEMPLATES: dict[tuple[str, ...], str] = {}


@dataclass(frozen=True)
class HookCall:
    """One scripted nested call a hooked account issues on payment receipt.

    ``require_success=False`` swallows a revert of this call (the hook keeps
    going), which is how an adversary probes a guarded operation without
    sabotaging its own payout.
    """

    module: str
    method: str
    args: tuple[tuple[str, Any], ...] = ()
    value: int = 0
    require_success: bool = False
    record_result: bool = False

    def __deepcopy__(self, memo: dict) -> "HookCall":
        return self  # never changes; its args are only read


@dataclass
class ReceiveHook:
    """Bounded script an account runs whenever it receives native currency.

    ``reject=True`` refuses the payment outright.  ``max_activations`` caps
    how many times the script fires inside one transaction, so reentrant
    scripts terminate without relying on the global depth limit.
    ``observed`` collects results of ``record_result`` calls; it is attacker
    side memory, deliberately outside the journal.
    """

    owner: Address
    calls: tuple[HookCall, ...] = ()
    reject: bool = False
    max_activations: int | None = None
    observed: list[tuple[str, Any]] = field(default_factory=list)
    _fired_tx: int = field(default=-1, repr=False)
    _fired_count: int = field(default=0, repr=False)


def _copy_sharing_entries(obj: Any, memo: dict) -> Any:
    """A deep copy of ``obj`` whose dicts and lists are one shallow copy
    each: their entries are scalars or frozen values, which a write
    replaces.  Each copy is registered in ``memo``, so that the journal and
    the write-set checks of a copied world name the copies."""
    copied = memo[id(obj)] = object.__new__(type(obj))
    for name, value in vars(obj).items():
        kind = type(value)
        if kind is dict or kind is list:
            if id(value) not in memo:
                memo[id(value)] = value.copy()
            value = memo[id(value)]
        else:
            value = copy.deepcopy(value, memo)
        setattr(copied, name, value)
    return copied


@dataclass
class FungibleLedger:
    balances: dict[Address, int] = field(default_factory=dict)
    allowances: dict[tuple[Address, Address], int] = field(default_factory=dict)
    total_supply: int = 0

    def __deepcopy__(self, memo: dict) -> "FungibleLedger":
        return _copy_sharing_entries(self, memo)


@dataclass
class NftLedger:
    owners: dict[int, Address] = field(default_factory=dict)
    approvals: dict[int, Address] = field(default_factory=dict)

    def __deepcopy__(self, memo: dict) -> "NftLedger":
        return _copy_sharing_entries(self, memo)


class TxResult(NamedTuple):
    """The outcome of one top-level transaction; a committed one carries
    its return value and the events it emitted."""

    ok: bool
    value: Any = None
    error: str | None = None
    error_message: str = ""
    events: Sequence[Event] = ()


class _Lock:
    """A held-or-free reentrancy lock, entered with ``with``."""

    __slots__ = ("locks", "key")

    def __init__(self, locks: set[tuple[str, str]], key: tuple[str, str]) -> None:
        self.locks, self.key = locks, key

    def __enter__(self) -> None:
        if self.key in self.locks:
            raise errors.Reentered("%s.%s already held" % self.key)
        self.locks.add(self.key)

    def __exit__(self, *exc: Any) -> None:
        self.locks.discard(self.key)


class Module:
    """Base for installed protocol modules.

    ``exposed`` lists the methods reachable through ``transact``/``call``;
    ``payable`` the subset that accepts attached native value.  The entries
    of a module's dicts and lists are scalars or frozen values, which a
    write replaces through ``jset`` and never changes in place.  A module's
    address is its id, so module escrow is an ordinary native balance and
    currency conservation stays a single sum.
    """

    exposed: frozenset[str] = frozenset()
    payable: frozenset[str] = frozenset()

    def __init__(self, module_id: str):
        self.module_id = module_id
        self.address: Address = module_id

    def __deepcopy__(self, memo: dict) -> "Module":
        return _copy_sharing_entries(self, memo)

    def snapshot_data(self) -> dict:
        """The module's part of the state digest.

        Return dicts and lists that the module holds as they are, not
        copies: the digest cache then renders each of their entries as a
        fragment of its own.  Callers must not modify the result.
        """
        return {}


class NativeTransfers(Module):
    """Built-in pseudo module so plain currency sends are transactions too."""

    exposed = frozenset({"transfer", "balance_of"})

    def transfer(self, state: "ChainState", ctx: ExecutionContext, to: Address, amount: int) -> bool:
        state.transfer_native(ctx, ctx.sender, to, amount)
        return True

    def balance_of(self, state: "ChainState", ctx: ExecutionContext, owner: Address) -> int:
        return state.native.get(owner, 0)


class ChainState:
    def __init__(self) -> None:
        self.native: dict[Address, int] = {}
        self.fungible: dict[str, FungibleLedger] = {}
        self.nft: dict[str, NftLedger] = {}
        self.clock: int = 0
        self.events: list[Event] = []
        self.modules: dict[str, Module] = {}
        self.hooks: dict[Address, ReceiveHook] = {}
        self.genesis_native_supply: int = 0
        self.tx_index: int = 0
        self._undo: list[JournalEntry] = []
        # write set of the latest transact(): its journal if it committed,
        # empty if it reverted; replaced by the next transaction
        self.last_writes: list[JournalEntry] | tuple[()] = ()
        self._frames: list[tuple[int, int]] = []  # (token, journal mark)
        self._next_frame_token: int = 1
        self._locks: set[tuple[str, str]] = set()
        # (length of the log, last event, hash before and after the last
        # event) of the latest event_hash() read or fold
        self._event_chain: tuple[int, Event | None, str, str] = (
            0, None, _EMPTY_HASH, _EMPTY_HASH)
        # events folded away by fold_events(): how many the log no longer
        # holds, and the event hash over them
        self._folded: int = 0
        self._fold_hash: str = _EMPTY_HASH
        # built by the first digest(); from then on every write marks it
        self._digest_cache: DigestCache | None = None
        self.install_module(NativeTransfers("native"))

    def __getstate__(self) -> dict:
        # a copy's containers are new objects, unknown to the digest cache
        state = self.__dict__.copy()
        state["_digest_cache"] = None
        return state

    def __deepcopy__(self, memo: dict) -> "ChainState":
        # a copy gets its own list of the same events, which never change,
        # and its own dict of the native balances; journal entries that name
        # the originals then name the copies
        memo[id(self.events)] = list(self.events)
        memo[id(self.native)] = dict(self.native)
        copied = memo[id(self)] = type(self).__new__(type(self))
        copied.__dict__.update(copy.deepcopy(self.__getstate__(), memo))
        return copied

    # ------------------------------------------------------------------ #
    # World setup (outside transactions)
    # ------------------------------------------------------------------ #

    def fund(self, addr: Address, amount: int) -> None:
        """Credit genesis native currency. Only legal before the first transaction."""
        if self._frames or self.tx_index:
            raise RuntimeError("fund() is genesis-only")
        if amount < 0:
            raise ValueError("genesis amounts must be non-negative")
        self.jset(self.native, addr, self.native.get(addr, 0) + amount)
        self.genesis_native_supply += amount

    def install_module(self, module: Module) -> Module:
        if self._frames:
            raise RuntimeError("cannot install a module inside a transaction")
        if module.module_id in self.modules:
            raise ValueError(f"module id {module.module_id!r} already installed")
        if module.address in self.native or module.address == ZERO_ADDRESS:
            raise ValueError(f"module address {module.address!r} already in use")
        self.modules[module.module_id] = module
        return module

    def is_module_address(self, addr: Address) -> bool:
        return addr in self.modules

    def set_receive_hook(self, addr: Address, hook: ReceiveHook | None) -> None:
        if self._frames:
            raise RuntimeError("hooks are installed between transactions")
        if hook is None:
            self.hooks.pop(addr, None)
        else:
            self.hooks[addr] = hook

    def create_fungible(self, ledger_id: str) -> FungibleLedger:
        if self._frames:
            raise RuntimeError("ledgers are created at deployment time")
        if ledger_id in self.fungible:
            raise ValueError(f"fungible ledger {ledger_id!r} exists")
        ledger = FungibleLedger()
        self.fungible[ledger_id] = ledger
        return ledger

    def create_nft_ledger(self, ledger_id: str) -> NftLedger:
        if self._frames:
            raise RuntimeError("ledgers are created at deployment time")
        if ledger_id in self.nft:
            raise ValueError(f"nft ledger {ledger_id!r} exists")
        ledger = NftLedger()
        self.nft[ledger_id] = ledger
        return ledger

    # ------------------------------------------------------------------ #
    # Logical clock
    # ------------------------------------------------------------------ #

    def advance_clock(self, delta: int) -> int:
        """Move simulated time forward. Only between transactions, never within one."""
        if self._frames:
            raise RuntimeError("the clock cannot move inside a transaction")
        if delta < 0:
            raise ValueError("clock only advances")
        self.clock += delta
        return self.clock

    # ------------------------------------------------------------------ #
    # Journal and frames
    # ------------------------------------------------------------------ #

    def jset(self, container: dict | list, key: Any, value: Any) -> None:
        """Write a dict key, or a list index that exists."""
        if self._frames:
            old = container[key] if type(container) is list else container.get(key, ABSENT)
            self._undo.append((container, key, old))
        if self._digest_cache is not None:
            self._digest_cache.mark(container, key)
        container[key] = value

    def jdel(self, mapping: dict, key: Any) -> None:
        if key in mapping:
            if self._frames:
                self._undo.append((mapping, key, mapping[key]))
            if self._digest_cache is not None:
                self._digest_cache.mark(mapping, key)
            del mapping[key]

    def jsetattr(self, obj: Any, name: str, value: Any) -> None:
        if self._frames:
            self._undo.append((obj, name, getattr(obj, name)))
        if self._digest_cache is not None:
            self._digest_cache.mark(obj, name)
        setattr(obj, name, value)

    def jappend(self, seq: list, item: Any) -> None:
        if self._frames:
            self._undo.append((seq, len(seq), ABSENT))
        if self._digest_cache is not None:
            self._digest_cache.mark(seq, len(seq))
        seq.append(item)

    def snapshot(self) -> int:
        """Open a frame; returns a token for rollback()."""
        token = self._next_frame_token
        self._next_frame_token += 1
        self._frames.append((token, len(self._undo)))
        return token

    def rollback(self, token: int) -> None:
        """Undo every mutation of the frame named by ``token`` and its children."""
        for i, (t, mark) in enumerate(self._frames):
            if t == token:
                undo = self._undo
                while len(undo) > mark:
                    container, key, old = undo.pop()
                    if self._digest_cache is not None:
                        # writes of the frame made before a digest built the cache
                        self._digest_cache.mark(container, key)
                    if not isinstance(container, (dict, list)):
                        setattr(container, key, old)
                    elif old is not ABSENT:
                        container[key] = old
                    elif isinstance(container, list):
                        container.pop()  # undoes a jappend
                    else:
                        container.pop(key, None)
                del self._frames[i:]
                return
        raise errors.UnknownFrame(f"no live frame {token}")

    def _commit(self, token: int) -> None:
        if not self._frames or self._frames[-1][0] != token:
            raise errors.UnknownFrame(f"frame {token} is not on top")
        self._frames.pop()

    def reentrancy_lock(self, module_id: str, name: str = "nonreentrant") -> "_Lock":
        """A context manager holding ``module_id``'s lock ``name``; entering
        it while held raises ``Reentered``."""
        return _Lock(self._locks, (module_id, name))

    # ------------------------------------------------------------------ #
    # Transactions and nested calls
    # ------------------------------------------------------------------ #

    def _module_for_call(self, module_id: str, method: str, value: int) -> Module:
        module = self.modules.get(module_id)
        if module is None:
            raise errors.UnknownOperation(f"no module {module_id!r}")
        if method not in module.exposed:
            raise errors.UnknownOperation(f"{module_id} does not expose {method!r}")
        if value > 0 and method not in module.payable:
            raise errors.NonPayable(f"{module_id}.{method} does not accept native value")
        return module

    def transact(self, sender: Address, module_id: str, method: str,
                 args: dict | None = None, value: int = 0) -> TxResult:
        """Execute one top-level transaction; commit on success, revert on any LedgerError.

        Any other exception is a fault in a module: the frame is rolled back
        so the world is left as it was, and the exception propagates.
        """
        if self._frames:
            raise RuntimeError("transactions do not nest; use call()")
        if value < 0:
            raise ValueError("attached value must be non-negative")
        token = self.snapshot()
        events_mark = len(self.events)
        ctx = ExecutionContext(sender, value, 0)
        writes: list[JournalEntry] | tuple[()] = ()
        try:
            module = self._module_for_call(module_id, method, value)
            if value:
                self._debit_native(sender, value)
                self._credit_native(module.address, value)
            ret = self._dispatch(module, method, ctx, args)
            self._commit(token)
            writes = self._undo
            result = TxResult(True, ret, None, "", self.events[events_mark:])
        except errors.LedgerError as exc:
            self.rollback(token)
            result = TxResult(False, None, exc.name, str(exc))
        finally:
            if self._frames:  # a non-LedgerError escaped with the frame open
                self.rollback(token)
            self._undo = []
            self.last_writes = writes
            self.tx_index += 1
        return result

    def call(self, ctx: ExecutionContext, module_id: str, method: str,
             args: dict | None = None, *, sender: Address | None = None, value: int = 0) -> Any:
        """Nested module call in a child frame; reverts the child and re-raises on error."""
        sender = ctx.sender if sender is None else sender
        depth = ctx.depth + 1
        if depth > MAX_CALL_DEPTH:
            raise errors.DepthExceeded(f"call depth {depth} exceeds {MAX_CALL_DEPTH}")
        token = self.snapshot()
        try:
            module = self._module_for_call(module_id, method, value)
            if value:
                self._debit_native(sender, value)
                self._credit_native(module.address, value)
            child = ExecutionContext(sender, value, depth)
            ret = self._dispatch(module, method, child, args)
            self._commit(token)
            return ret
        except errors.LedgerError:
            self.rollback(token)
            raise

    def _dispatch(self, module: Module, method: str, ctx: ExecutionContext,
                  args: dict | None) -> Any:
        # malformed arguments (wrong names, incomparable types, a sequence
        # that is no list of pairs) revert rather than escape as raw
        # TypeErrors or ValueErrors; scenario input is untrusted.  A dict
        # goes to ``**`` as it is: the call binds its own copy
        if type(args) is not dict:
            try:
                args = dict(args or {})
            except (TypeError, ValueError) as exc:
                raise errors.UnknownOperation(
                    f"bad arguments for {module.module_id}.{method}: {exc}") from exc
        try:
            return getattr(module, method)(self, ctx, **args)
        except TypeError as exc:
            raise errors.UnknownOperation(
                f"bad arguments for {module.module_id}.{method}: {exc}") from exc

    # ------------------------------------------------------------------ #
    # Native currency
    # ------------------------------------------------------------------ #

    def _debit_native(self, addr: Address, amount: int) -> None:
        have = self.native.get(addr, 0)
        if amount > have:
            raise errors.InsufficientNative(f"{addr} holds {have}, needs {amount}")
        self.jset(self.native, addr, have - amount)

    def _credit_native(self, addr: Address, amount: int) -> None:
        self.jset(self.native, addr, self.native.get(addr, 0) + amount)

    def transfer_native(self, ctx: ExecutionContext, frm: Address, to: Address, amount: int) -> None:
        """Move native currency and run the recipient's payment hook, if any.

        The transfer and its hook share a child frame: a reverting hook rolls
        that frame back and surfaces as HookReverted, leaving the caller's
        own frame intact to handle the failure.
        """
        if amount < 0:
            raise errors.InvalidAmount("negative transfer")
        if to == ZERO_ADDRESS:
            raise errors.ZeroAddressRecipient("native transfer to the zero address")
        if self.is_module_address(to):
            raise errors.NonPayable(f"{to} does not accept plain native transfers")
        if self.native.get(frm, 0) < amount:
            raise errors.InsufficientNative(
                f"{frm} holds {self.native.get(frm, 0)}, needs {amount}")
        token = self.snapshot()
        try:
            self._debit_native(frm, amount)
            self._credit_native(to, amount)
            hook = self.hooks.get(to)
            if amount > 0 and hook is not None:
                self._run_hook(ctx, hook)
            self._commit(token)
        except errors.DepthExceeded:
            self.rollback(token)
            raise
        except errors.LedgerError as exc:
            self.rollback(token)
            raise errors.HookReverted(f"recipient hook failed: {exc.name}: {exc}") from exc

    def _run_hook(self, ctx: ExecutionContext, hook: ReceiveHook) -> None:
        if hook.reject:
            raise errors.HookReverted("payment rejected by recipient")
        if hook._fired_tx != self.tx_index:
            hook._fired_tx = self.tx_index
            hook._fired_count = 0
        if hook.max_activations is not None and hook._fired_count >= hook.max_activations:
            return
        hook._fired_count += 1
        depth = ctx.depth + 1
        if depth > MAX_CALL_DEPTH:
            raise errors.DepthExceeded(f"hook at depth {depth} exceeds {MAX_CALL_DEPTH}")
        hook_ctx = ExecutionContext(hook.owner, 0, depth)
        for call_spec in hook.calls:
            try:
                ret = self.call(hook_ctx, call_spec.module, call_spec.method,
                                dict(call_spec.args), sender=hook.owner, value=call_spec.value)
                if call_spec.record_result:
                    hook.observed.append((call_spec.method, ret))
            except errors.LedgerError as exc:
                if call_spec.record_result:
                    hook.observed.append((call_spec.method, f"error:{exc.name}"))
                if call_spec.require_success:
                    raise

    # ------------------------------------------------------------------ #
    # Fungible ledgers
    # ------------------------------------------------------------------ #

    def _fungible(self, ledger_id: str) -> FungibleLedger:
        ledger = self.fungible.get(ledger_id)
        if ledger is None:
            raise errors.UnknownOperation(f"no fungible ledger {ledger_id!r}")
        return ledger

    def fungible_balance(self, ledger_id: str, addr: Address) -> int:
        return self._fungible(ledger_id).balances.get(addr, 0)

    def fungible_supply(self, ledger_id: str) -> int:
        return self._fungible(ledger_id).total_supply

    def fungible_allowance(self, ledger_id: str, owner: Address, spender: Address) -> int:
        return self._fungible(ledger_id).allowances.get((owner, spender), 0)

    def fungible_transfer(self, ctx: ExecutionContext, ledger_id: str,
                          frm: Address, to: Address, amount: int) -> bool:
        """Move fungible units; third parties spend down a prior allowance.

        Returns an explicit success flag (callers check it) and reverts with
        a typed error on every failure path.
        """
        ledger = self._fungible(ledger_id)
        if amount < 0:
            raise errors.InvalidAmount("negative transfer")
        if to == ZERO_ADDRESS:
            raise errors.ZeroAddressRecipient("fungible transfer to the zero address")
        if ctx.sender != frm:
            allowed = ledger.allowances.get((frm, ctx.sender), 0)
            if amount > allowed:
                raise errors.InsufficientAllowance(
                    f"{ctx.sender} may spend {allowed} of {frm}'s {ledger_id}, needs {amount}")
            self.jset(ledger.allowances, (frm, ctx.sender), allowed - amount)
        have = ledger.balances.get(frm, 0)
        if amount > have:
            raise errors.InsufficientBalance(f"{frm} holds {have} {ledger_id}, needs {amount}")
        self.jset(ledger.balances, frm, have - amount)
        self.jset(ledger.balances, to, ledger.balances.get(to, 0) + amount)
        self.emit(ctx, ledger_id, "Transfer", {"from": frm, "to": to, "amount": amount})
        return True

    def fungible_approve(self, ctx: ExecutionContext, ledger_id: str,
                         spender: Address, amount: int) -> bool:
        ledger = self._fungible(ledger_id)
        if amount < 0:
            raise errors.InvalidAmount("negative allowance")
        if spender == ZERO_ADDRESS:
            raise errors.ZeroAddress("approval for the zero address")
        self.jset(ledger.allowances, (ctx.sender, spender), amount)
        self.emit(ctx, ledger_id, "Approval",
                  {"owner": ctx.sender, "spender": spender, "amount": amount})
        return True

    def fungible_mint(self, ctx: ExecutionContext, ledger_id: str, to: Address, amount: int) -> None:
        ledger = self._fungible(ledger_id)
        if amount < 0:
            raise errors.InvalidAmount("negative mint")
        if to == ZERO_ADDRESS:
            raise errors.ZeroAddressRecipient("mint to the zero address")
        self.jset(ledger.balances, to, ledger.balances.get(to, 0) + amount)
        self.jsetattr(ledger, "total_supply", ledger.total_supply + amount)
        self.emit(ctx, ledger_id, "Mint", {"to": to, "amount": amount})

    def fungible_burn(self, ctx: ExecutionContext, ledger_id: str, frm: Address, amount: int) -> None:
        ledger = self._fungible(ledger_id)
        if amount < 0:
            raise errors.InvalidAmount("negative burn")
        have = ledger.balances.get(frm, 0)
        if amount > have:
            raise errors.InsufficientBalance(f"{frm} holds {have} {ledger_id}, burn {amount}")
        self.jset(ledger.balances, frm, have - amount)
        self.jsetattr(ledger, "total_supply", ledger.total_supply - amount)
        self.emit(ctx, ledger_id, "Burn", {"from": frm, "amount": amount})

    def set_fungible_balance(self, ledger_id: str, addr: Address, amount: int) -> None:
        """Raw journaled balance write. Does not touch total supply."""
        ledger = self._fungible(ledger_id)
        self.jset(ledger.balances, addr, amount)

    # ------------------------------------------------------------------ #
    # NFT ledgers
    # ------------------------------------------------------------------ #

    def _nft(self, ledger_id: str) -> NftLedger:
        ledger = self.nft.get(ledger_id)
        if ledger is None:
            raise errors.UnknownOperation(f"no nft ledger {ledger_id!r}")
        return ledger

    def nft_owner(self, ledger_id: str, token_id: int) -> Address:
        ledger = self._nft(ledger_id)
        owner = ledger.owners.get(token_id)
        if owner is None:
            raise errors.UnknownToken(f"{ledger_id} has no token {token_id}")
        return owner

    def nft_mint(self, ctx: ExecutionContext, ledger_id: str, to: Address, token_id: int) -> None:
        ledger = self._nft(ledger_id)
        if to == ZERO_ADDRESS:
            raise errors.ZeroAddressRecipient("mint to the zero address")
        if token_id in ledger.owners:
            raise errors.TokenExists(f"{ledger_id} token {token_id} already minted")
        self.jset(ledger.owners, token_id, to)
        self.emit(ctx, ledger_id, "NFTMinted", {"to": to, "token_id": token_id})

    def nft_transfer(self, ctx: ExecutionContext, authority: Address, ledger_id: str,
                     token_id: int, to: Address) -> None:
        """Transfer a token; ``authority`` must be the owner or the approved address."""
        ledger = self._nft(ledger_id)
        owner = ledger.owners.get(token_id)
        if owner is None:
            raise errors.UnknownToken(f"{ledger_id} has no token {token_id}")
        if to == ZERO_ADDRESS:
            raise errors.ZeroAddressRecipient("nft transfer to the zero address")
        if authority != owner and ledger.approvals.get(token_id) != authority:
            raise errors.NotOwnerNorApproved(
                f"{authority} is neither owner nor approved for token {token_id}")
        self.jset(ledger.owners, token_id, to)
        self.jdel(ledger.approvals, token_id)
        self.emit(ctx, ledger_id, "NFTTransfer",
                  {"from": owner, "to": to, "token_id": token_id})

    def nft_approve(self, ctx: ExecutionContext, ledger_id: str, token_id: int,
                    spender: Address) -> None:
        ledger = self._nft(ledger_id)
        owner = ledger.owners.get(token_id)
        if owner is None:
            raise errors.UnknownToken(f"{ledger_id} has no token {token_id}")
        if ctx.sender != owner:
            raise errors.NotOwnerNorApproved(f"{ctx.sender} does not own token {token_id}")
        self.jset(ledger.approvals, token_id, spender)
        self.emit(ctx, ledger_id, "NFTApproval",
                  {"owner": owner, "spender": spender, "token_id": token_id})

    # ------------------------------------------------------------------ #
    # Events and digests
    # ------------------------------------------------------------------ #

    def emit(self, ctx: ExecutionContext, emitter: str, name: str, payload: dict) -> None:
        keys = tuple(payload)
        self.jappend(self.events, Event(
            name, emitter, _EVENT_KEYS.setdefault(keys, keys),
            tuple(payload.values()), ctx.depth, self.tx_index))

    def event_count(self) -> int:
        """How many events the world committed, folded ones included."""
        return self._folded + len(self.events)

    def event_hash(self) -> str:
        """The hash chain over every committed event: each link is the
        sha256 of the previous link followed by the canonical JSON of one
        event.

        Computed when read, continuing from the previous read while its last
        event still sits at the same place in the log; a rollback past it
        restarts the chain at the latest fold, or at the empty hash before
        the first.  Events nobody reads a digest after, such as those of
        reverted transactions, are never hashed.
        """
        events = self.events
        before, chained = self._chained(events)
        self._event_chain = (len(events), events[-1] if events else None,
                             before, chained)
        return chained

    def fold_events(self) -> None:
        """Fold the committed event log into the event hash: hash it and
        drop every event but the last, which still stands for the log.
        The event count, the event hash and every digest read as before;
        only code that reads the log itself sees fewer events.  An event
        already hashed by a read is not hashed again.  Between
        transactions only."""
        if self._frames:
            raise RuntimeError("events are folded between transactions")
        events = self.events
        if len(events) < 2:
            return
        self._fold_hash, chained = self._chained(events)
        self._folded += len(events) - 1
        self.events = events[-1:]
        self._event_chain = (1, events[-1], self._fold_hash, chained)

    def _chained(self, log: Sequence[Event]) -> tuple[str, str]:
        """The event hash of the folded events followed by ``log`` but its
        last event, and followed by all of ``log``; continued from the
        latest ``event_hash()`` read or fold while its last event is still
        in place."""
        count, last, before, chained = self._event_chain
        if count > len(log) or (count and log[count - 1] is not last):
            count, before, chained = 0, self._fold_hash, self._fold_hash
        return _chain(before, chained, log[count:])

    def _scalars(self) -> dict:
        return _scalar_fields(self.clock, self.genesis_native_supply,
                              self.event_count(), self.event_hash())

    def _sections(self) -> Iterator[tuple]:
        """The digest document's sections after the native balances, in
        document order, as ``(group, name, data)``; the data holds the
        world's dicts and lists live."""
        for group in ("fungible", "nft", "modules"):
            for name, obj in getattr(self, group).items():
                yield group, name, _section_data(group, obj)

    def _document(self) -> dict:
        return _assembled(self._scalars(), self.native, self._sections())

    def identity_snapshot(self) -> IdentitySnapshot:
        """The digest document's objects now and its shape, for
        ``unchanged_since``.  A dict or list is listed by its entries, so
        the snapshot keeps the objects it holds now."""
        events, native = self.events, self.native
        shape = [self.event_count(), len(native)]
        objects = [self.clock, self.genesis_native_supply,
                   events[-1] if events else None, *native, *native.values()]
        append, extend = objects.append, objects.extend
        for group, name, data in self._sections():
            append(group)
            append(name)
            extend(data)
            shape.append(len(data))
            for value in data.values():
                kind = type(value)
                if kind is dict:
                    shape += (dict, len(value))
                    extend(value)
                    extend(value.values())
                elif kind is list:
                    shape += (list, len(value))
                    extend(value)
                else:
                    shape.append(None)
                    append(value)
        return IdentitySnapshot(shape, objects)

    def digest(self) -> str:
        """Hash of the canonical committed-state document (see docs in README).

        Incremental: the first call builds a ``DigestCache`` and later calls
        re-render only what was written since, or serve the previous hash
        when the document is unchanged.  Every ``DIGEST_CHECK_INTERVAL``-th
        call, served or not, also recomputes in full and raises
        ``DigestCacheMismatch``, naming the stale section, on a difference.
        """
        cache = self._digest_cache
        if cache is None:
            cache = self._digest_cache = DigestCache()
        digest = cache.digest(self)
        cache.served += 1
        if cache.served % DIGEST_CHECK_INTERVAL == 0 and self.full_digest() != digest:
            raise DigestCacheMismatch(
                f"cached digest section {cache.stale_section(self)} differs from "
                f"the full recompute: a write bypassed the journaled helpers")
        return digest

    def full_digest(self) -> str:
        """The same hash as ``digest``, recomputed from the whole world
        without the cache, so it does not rely on writes being journaled."""
        return digest_of(self._document())

    def snapshot_digest(self, snapshot: IdentitySnapshot) -> str:
        """The full digest of the world ``snapshot`` was taken of."""
        count, last = snapshot.shape[0] - self._folded, snapshot.objects[2]
        log = [*self.events[:count - 1], last] if count else []
        return digest_of(_document_of(snapshot, self._chained(log)[1]))

    def unchanged_since(self, snapshot: IdentitySnapshot) -> bool:
        """Whether the full digest is that of the world ``snapshot`` was
        taken of.  When the world holds the very same objects the digests
        agree without hashing: every collection entry is a scalar or a
        frozen value, so an object renders as it did.  Otherwise both
        documents are hashed.  Neither way reads the journal."""
        return (_same_objects(snapshot, self.identity_snapshot())
                or self.snapshot_digest(snapshot) == self.full_digest())
