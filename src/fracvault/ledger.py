"""Deterministic world-state ledger with transactional call frames.

One ``ChainState`` instance is the entire simulated world: native currency
balances, any number of fungible and non-fungible token ledgers, a logical
clock, installed protocol modules, and the committed event log.

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
of the log.

The state digest is incremental: ``digest()`` keeps a ``DigestCache`` of
canonical JSON fragments, and each write helper marks the one fragment it
touches (a collection entry, such as a balance or an auction, or one
module scalar), committed or rolled back, so a digest re-encodes only
those and joins their ancestors from cached pieces.  ``full_digest()``
recomputes the same bytes from the whole world with ``normalize`` and
``json``; the revert-atomicity oracles use it because it does not rely on
the journal, and ``digest()`` compares against it every
``DIGEST_CHECK_INTERVAL`` calls.

Determinism: no wall clock, no ambient randomness, insertion-ordered dicts
only.  Identical genesis plus an identical transaction sequence produces an
identical state digest and event log.
"""

from __future__ import annotations

import copy
import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from typing import Any, NamedTuple, Sequence

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


def canonical_json(data: Any) -> str:
    return _CANONICAL.encode(data)


def normalize(value: Any) -> Any:
    """Render a value as portable JSON data: ints become decimal strings.

    A record with ``as_data`` renders as its data, a ``NamedTuple`` record
    too; any other list or tuple renders as a list.  Exact types are tested
    first, as they make up nearly all of a digest document.
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
    if isinstance(value, dict):
        return {str(k): normalize(v) for k, v in value.items()}
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def digest_of(data: Any) -> str:
    return hashlib.sha256(canonical_json(normalize(data)).encode()).hexdigest()


def _text(value: Any) -> str:
    """``canonical_json(normalize(value))``, encoded by exact type; other
    types go through ``normalize``."""
    kind = type(value)
    if kind is str:
        return _json_str(value)
    if kind is int:
        return '"%d"' % value
    if kind is dict:
        named = {str(k): v for k, v in value.items()}  # keys that render alike keep the last
        return "{" + ",".join([_json_str(k) + ":" + _text(named[k]) for k in sorted(named)]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([_text(v) for v in value]) + "]"
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    return canonical_json(normalize(value))


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


def _section_data(group: str, obj: Any, live: bool = False) -> Any:
    """One section of the digest document: the native balances, a fungible
    or NFT ledger, or a module's snapshot.  ``live`` keeps a ledger's
    allowances as held, keyed by ``(owner, spender)``."""
    if group == "native":
        return obj
    if group == "fungible":
        allowances = obj.allowances if live else {
            _pair_name(pair): v for pair, v in obj.allowances.items()}
        return {"supply": obj.total_supply, "balances": obj.balances,
                "allowances": allowances}
    if group == "nft":
        return {"owners": obj.owners, "approvals": obj.approvals}
    return obj.snapshot_data()


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


class DigestCache:
    """Canonical JSON of the digest document, kept as encoded fragments and
    re-encoded only where written.

    A section is the native ledger, one fungible or NFT ledger, or one
    module.  A dict or list that a section's data holds live (not a copy),
    such as the vault's auctions or a ledger's allowances, is a collection
    whose entries are fragments of their own; its other values are plain
    fragments.  Entries are never changed in place, so ``owners`` maps
    only containers, by id: a collection, where a write dirties the entry
    under its key, or the section's object and its other containers, where
    a write makes the section's data be read again and encoded where it
    holds new objects.  It keeps each container alive so that the id stays
    unique.  The write helpers call ``mark`` whether the write later
    commits or rolls back, so a rollback that fails to restore a value is
    encoded as it is.  New fragments go into their parents' cached pieces,
    and only dirty ancestors are joined again.  The scalars (clock,
    supply, event count and hash) are read on every call.
    """

    def __init__(self) -> None:
        self.sections: dict[tuple[str, ...], _Section] = {}
        self.groups: dict[str, tuple[tuple[str, ...], _Object]] = {}
        # id -> (container, section, the collection it is or None)
        self.owners: dict[int, tuple[Any, _Section, _Collection | None]] = {}
        self.dirty: set[_Section] = set()
        self.top: _Object | None = None
        self.scalars: dict[str, Any] = {}  # as last encoded into ``top``
        self.served = 0

    def mark(self, container: Any, key: Any) -> None:
        owner = self.owners.get(id(container))
        if owner is not None:
            _, section, collection = owner
            self.dirty.add(section)
            if collection is None:
                section.stale = True
            else:
                collection.dirty.add(key)

    def document(self, state: "ChainState") -> bytes:
        """The encoded canonical JSON of ``state``'s digest document."""
        self._member(("native",), "native", state.native)
        joined = set()  # groups to join again
        for group in ("fungible", "nft", "modules"):
            members = getattr(state, group)
            if group not in self.groups or self.groups[group][0] != tuple(members):
                self.groups[group] = (tuple(members), _Object(members))
                joined.add(group)
                for name, obj in members.items():
                    self.dirty.add(self._member((group, name), group, obj))
        scalars = state._scalars()
        if self.top is None:
            self.top = _Object([*scalars, "native", *self.groups])
        dirty, self.dirty = self.dirty, set()
        for section in dirty:
            self._render(section)
            if section.group == "native":
                self.top.set("native", section.text)
            else:
                self.groups[section.group][1].set(section.name, section.text)
                joined.add(section.group)
        for group in joined:
            self.top.set(group, self.groups[group][1].text())
        for name, value in scalars.items():
            old = self.scalars.get(name, ABSENT)
            if type(value) is not type(old) or value != old:
                self.top.set(name, _text(value).encode())
        self.scalars = scalars
        return self.top.text()

    def stale_section(self, state: "ChainState") -> str:
        """The first section whose cached fragment differs from a full render."""
        for key, section in self.sections.items():
            full = canonical_json(normalize(_section_data(section.group, section.obj)))
            if full.encode() != section.text:
                return ".".join(key)
        return "document"

    def _member(self, key: tuple[str, ...], group: str, obj: Any) -> _Section:
        section = self.sections.get(key)
        if section is None or section.obj is not obj:
            section = self.sections[key] = _Section(group, key[-1], obj)
            self.dirty.add(section)
        return section

    def _render(self, section: _Section) -> None:
        if section.stale:
            self._refresh(section)
        if section.whole is not None:
            self._update(section.whole, section.whole.dirty)
            section.text = section.whole.text
            return
        for name, collection in section.collections.items():
            if collection.dirty:
                self._update(collection, collection.dirty)
                section.fields.set(name, collection.text)
        section.text = section.fields.text()

    def _refresh(self, section: _Section) -> None:
        """Read a section's data again and encode its new objects: plain
        values that a write replaced, and collections that are new."""
        obj = section.obj
        section.stale = False
        live = {id(c): c for c in _containers(obj)}
        data = _section_data(section.group, obj, live=True)
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
                fragment = _text(value).encode()
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

    def _update(self, collection: _Collection, keys: Any, rebuild: bool = False) -> None:
        """Encode the entries under ``keys`` again, in their order, and join
        the collection's text."""
        container, pieces = collection.container, collection.pieces
        if isinstance(container, list):
            del pieces[len(container):]
            for i in keys:
                if i < len(pieces):
                    pieces[i] = _text(container[i]).encode()
            for i in range(len(pieces), len(container)):
                pieces.append(_text(container[i]).encode())
            collection.text = b"[" + b",".join(pieces) + b"]"
            collection.dirty.clear()
            return
        order = collection.order
        for key in keys:
            name = collection.name(key)
            i = bisect_left(order, name)
            found = i < len(order) and order[i] == name
            if key in container:
                piece = _key(name) + _text(container[key]).encode()
                if found:
                    pieces[i] = piece
                else:
                    order.insert(i, name)
                    pieces.insert(i, piece)
            elif found:
                del order[i], pieces[i]
        collection.dirty.clear()
        if len(pieces) != len(container) and not rebuild:
            # keys that render alike: encoded in the container's order, the
            # last one stays, as normalize keeps it
            del order[:], pieces[:]
            return self._update(collection, list(container), rebuild=True)
        collection.text = b"{" + b",".join(pieces) + b"}"


class ExecutionContext(NamedTuple):
    """Per-call frame view: who is calling, with how much attached value."""

    sender: Address
    value: int = 0
    depth: int = 0


class Event(NamedTuple):
    """One emitted event.  Events never change, so copies of a world share
    them, and the event hash chain may read them long after ``emit``."""

    name: str
    emitter: str
    payload: tuple[tuple[str, Any], ...]
    frame: int
    tx_index: int

    def __deepcopy__(self, memo: dict) -> "Event":
        return self

    def canonical(self) -> str:
        """``canonical_json(self.as_data())``, encoded without building it:
        string names and payload keys, ``frame`` and ``tx`` as JSON numbers."""
        return '{"emitter":%s,"frame":%d,"name":%s,"payload":[%s],"tx":%d}' % (
            _json_str(self.emitter), self.frame, _json_str(self.name),
            ",".join(["[%s,%s]" % (_json_str(k), _text(v)) for k, v in self.payload]),
            self.tx_index)

    def as_data(self) -> dict:
        return {
            "name": self.name,
            "emitter": self.emitter,
            "payload": [[k, normalize(v)] for k, v in self.payload],
            "frame": self.frame,
            "tx": self.tx_index,
        }


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


@dataclass
class FungibleLedger:
    balances: dict[Address, int] = field(default_factory=dict)
    allowances: dict[tuple[Address, Address], int] = field(default_factory=dict)
    total_supply: int = 0


@dataclass
class NftLedger:
    owners: dict[int, Address] = field(default_factory=dict)
    approvals: dict[int, Address] = field(default_factory=dict)


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
    ``payable`` the subset that accepts attached native value.  A module's
    address is its id, so module escrow is an ordinary native balance and
    currency conservation stays a single sum.
    """

    exposed: frozenset[str] = frozenset()
    payable: frozenset[str] = frozenset()

    def __init__(self, module_id: str):
        self.module_id = module_id
        self.address: Address = module_id

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
    def __init__(self, max_call_depth: int = MAX_CALL_DEPTH):
        self.native: dict[Address, int] = {}
        self.fungible: dict[str, FungibleLedger] = {}
        self.nft: dict[str, NftLedger] = {}
        self.clock: int = 0
        self.events: list[Event] = []
        self.modules: dict[str, Module] = {}
        self.hooks: dict[Address, ReceiveHook] = {}
        self.genesis_native_supply: int = 0
        self.max_call_depth = max_call_depth
        self.tx_index: int = 0
        self._undo: list[JournalEntry] = []
        # write set of the latest transact(): its journal if it committed,
        # empty if it reverted; replaced by the next transaction
        self.last_writes: list[JournalEntry] | tuple[()] = ()
        self._frames: list[tuple[int, int]] = []  # (token, journal mark)
        self._next_frame_token: int = 1
        self._locks: set[tuple[str, str]] = set()
        # (event count, last event, hash) of the latest event_hash() read
        self._event_chain: tuple[int, Event | None, str] = (0, None, _EMPTY_HASH)
        # built by the first digest(); from then on every write marks it
        self._digest_cache: DigestCache | None = None
        self.install_module(NativeTransfers("native"))

    def __getstate__(self) -> dict:
        # a copy's containers are new objects, unknown to the digest cache
        state = self.__dict__.copy()
        state["_digest_cache"] = None
        return state

    def __deepcopy__(self, memo: dict) -> "ChainState":
        # a copy gets its own list of the same events, which never change;
        # journal entries that name the list then name the copy's
        memo[id(self.events)] = list(self.events)
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
        if depth > self.max_call_depth:
            raise errors.DepthExceeded(f"call depth {depth} exceeds {self.max_call_depth}")
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
        # malformed arguments (wrong names, incomparable types) revert rather
        # than escape as raw TypeErrors; scenario input is untrusted.  A dict
        # goes to ``**`` as it is: the call binds its own copy
        try:
            if type(args) is not dict:
                args = dict(args or {})
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
        if depth > self.max_call_depth:
            raise errors.DepthExceeded(f"hook at depth {depth} exceeds {self.max_call_depth}")
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
        self.jappend(self.events, Event(name, emitter, tuple(payload.items()),
                                        ctx.depth, self.tx_index))

    def event_hash(self) -> str:
        """The hash chain over the event log: each link is the sha256 of the
        previous link followed by the canonical JSON of one event.

        Computed when read, continuing from the previous read while its last
        event still sits at the same place in the log; a rollback past it
        restarts the chain.  Events nobody reads a digest after, such as
        those of reverted transactions, are never hashed.
        """
        count, last, chained = self._event_chain
        events = self.events
        if count > len(events) or (count and events[count - 1] is not last):
            count, chained = 0, _EMPTY_HASH
        for event in events[count:]:
            link = chained + event.canonical()
            chained = hashlib.sha256(link.encode()).hexdigest()
        self._event_chain = (len(events), events[-1] if events else None, chained)
        return chained

    def _scalars(self) -> dict:
        return {"clock": self.clock, "genesis_supply": self.genesis_native_supply,
                "event_count": len(self.events), "event_hash": self.event_hash()}

    def _document(self) -> dict:
        doc = self._scalars()
        doc["native"] = self.native
        for group in ("fungible", "nft", "modules"):
            doc[group] = {name: _section_data(group, obj)
                          for name, obj in getattr(self, group).items()}
        return doc

    def digest(self) -> str:
        """Hash of the canonical committed-state document (see docs in README).

        Incremental: the first call builds a ``DigestCache`` and later calls
        re-render only what was written since.  Every
        ``DIGEST_CHECK_INTERVAL``-th call also recomputes in full and raises
        ``DigestCacheMismatch``, naming the stale section, on a difference.
        """
        if self._digest_cache is None:
            self._digest_cache = DigestCache()
        cache = self._digest_cache
        digest = hashlib.sha256(cache.document(self)).hexdigest()
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
