"""Crash-safe checkpointing for corpus-scale ``explain_many`` runs.

A corpus sweep — thousands of blocks through one warm session — can run for
hours; losing the whole run to an OOM kill at block 9,900 is what the
ROADMAP's "stream/checkpoint so a corpus-scale run survives interruption"
item is about.  This module implements the journal behind
``ExplanationSession.explain_many(checkpoint=path)``:

* **An append-only JSONL journal.**  Each completed explanation is appended
  as one self-contained line — position in the fleet, its per-position
  content key, a human-readable summary, and a pickled payload that
  round-trips the :class:`~repro.explain.explanation.Explanation` object
  bit-for-bit.  Lines are flushed and fsynced as they are written, so a
  crash loses at most the explanation in flight; a torn final line (the
  crash landed mid-write) is detected and ignored on replay.
* **An atomically-renamed manifest.**  The journal is only meaningful for
  one exact run: same blocks, model, microarchitecture, explainer config
  and seed.  That identity is hashed into a manifest written via
  write-to-temp-then-``os.replace`` (atomic on POSIX), and a journal whose
  manifest does not match the resuming run is discarded rather than
  half-trusted — stale results never leak into a different run.
* **Bit-for-bit resume.**  ``explain_many`` spawns one independent random
  stream per fleet position, so skipping already-journaled positions cannot
  change what the remaining positions compute: an interrupted-and-resumed
  run is bit-for-bit identical to an uninterrupted one (pinned in
  ``tests/runtime/test_checkpoint.py``).

The journal requires an *integer* seed: resuming a run driven by a live
``Generator`` object is unreproducible by construction (its state advanced
with the crash), and refusing loudly beats silently journaling results that
can never be matched again.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.explain.explanation import Explanation
from repro.utils.errors import CheckpointError

#: Manifest schema version: bump when the journal format changes so old
#: journals are discarded instead of misread.
JOURNAL_VERSION = 1


def run_fingerprint(
    *,
    blocks: Sequence,
    model_name: str,
    uarch: str,
    config,
    seed: int,
) -> str:
    """The identity of one checkpointable run, as a stable hex digest.

    Everything that can change a result is hashed: the exact fleet (keys in
    order — position matters because each position has its own spawned
    stream), the model and microarchitecture, the explainer configuration
    and the run seed.  Nothing else is: a checkpointed run is always
    sequential, so ``shards`` cannot change its results and a resume with
    another ``shards`` value keeps the journal.
    """
    hasher = hashlib.sha256()
    hasher.update(f"v{JOURNAL_VERSION}|{model_name}|{uarch}|{seed}|".encode())
    hasher.update(repr(config).encode("utf-8"))
    for block in blocks:
        hasher.update(repr(block.key()).encode("utf-8"))
        hasher.update(b";")
    return hasher.hexdigest()


def _entry_key(position: int, block) -> str:
    """The per-entry key: run-relative position plus block content digest."""
    digest = hashlib.sha256(repr(block.key()).encode("utf-8")).hexdigest()[:16]
    return f"{position}:{digest}"


class CheckpointJournal:
    """One run's journal: a manifest plus an append-only JSONL result log.

    Parameters
    ----------
    path:
        The journal file (JSON lines).  The manifest lives next to it at
        ``<path>.manifest``; parent directories are created as needed.
    fingerprint:
        The :func:`run_fingerprint` of the run this journal belongs to.
    fleet_size:
        Number of blocks in the fleet (sanity-checked on resume).

    Opening the journal decides resume-vs-fresh: a matching manifest replays
    every intact journal line (``completed`` maps fleet positions to their
    recovered explanations), anything else — no manifest, mismatched
    fingerprint, old version — truncates the journal and writes a fresh
    manifest atomically.
    """

    def __init__(self, path, *, fingerprint: str, fleet_size: int) -> None:
        self.path = Path(path)
        self.manifest_path = Path(str(path) + ".manifest")
        self.fingerprint = fingerprint
        self.fleet_size = fleet_size
        self.completed: Dict[int, Explanation] = {}
        self.skipped = 0
        self._expected_keys: Dict[int, str] = {}
        self._handle = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._manifest_matches():
            self._replay()
        else:
            self._start_fresh()
        # Append mode: resumed runs must not clobber recovered entries.
        self._handle = self.path.open("a", encoding="utf-8")
        self.skipped = len(self.completed)

    # ------------------------------------------------------------------ open

    def _manifest_matches(self) -> bool:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, json.JSONDecodeError):
            return False
        return (
            isinstance(manifest, dict)
            and manifest.get("version") == JOURNAL_VERSION
            and manifest.get("fingerprint") == self.fingerprint
            and manifest.get("fleet_size") == self.fleet_size
        )

    def _start_fresh(self) -> None:
        """Truncate the journal, then atomically publish the manifest.

        Order matters for crash safety: the journal is emptied *before* the
        manifest names it, so a crash between the two steps leaves a
        manifest-less journal that the next open discards — never a
        manifest blessing stale entries.
        """
        self.path.write_text("")
        payload = json.dumps(
            {
                "version": JOURNAL_VERSION,
                "fingerprint": self.fingerprint,
                "fleet_size": self.fleet_size,
            },
            indent=2,
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.manifest_path.parent),
            prefix=self.manifest_path.name + ".",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.manifest_path)
        except OSError as error:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise CheckpointError(
                f"cannot write checkpoint manifest {self.manifest_path}: {error}"
            ) from error

    def _replay(self) -> None:
        """Load every intact journal line; tolerate a torn final line."""
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return
        for line_number, line in enumerate(raw.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                position = int(entry["position"])
                key = str(entry["key"])
                blob = base64.b64decode(entry["payload"])
                explanation = pickle.loads(blob)
            except Exception:  # noqa: BLE001 - a torn tail is expected after a crash
                # Anything undecodable past here is the crash frontier:
                # journal appends are strictly ordered, so stop replaying.
                break
            if not isinstance(explanation, Explanation):
                break
            if position in self.completed:
                continue  # an interrupted rewrite double-journaled; first wins
            if not 0 <= position < self.fleet_size:
                raise CheckpointError(
                    f"journal {self.path} line {line_number} names position "
                    f"{position}, outside the fleet of {self.fleet_size}"
                )
            self.completed[position] = explanation
            self._expected_keys[position] = key

    def verify_entry_keys(self, blocks: Sequence) -> None:
        """Cross-check recovered entries against the resuming fleet.

        The manifest fingerprint already pins the whole run, so a mismatch
        here means the journal was hand-edited or corrupted in a way that
        kept JSON intact — refuse rather than return wrong explanations.
        """
        for position, key in self._expected_keys.items():
            if key != _entry_key(position, blocks[position]):
                raise CheckpointError(
                    f"journal {self.path} entry for position {position} does "
                    f"not match the block at that position; the journal "
                    f"belongs to a different fleet"
                )

    # ---------------------------------------------------------------- record

    def record(self, position: int, block, explanation: Explanation) -> None:
        """Append one completed explanation, flushed and fsynced.

        The pickled payload is what resume returns (bit-for-bit); the
        summary fields ride along so a human (or ``jq``) can watch a run's
        progress without unpickling anything.
        """
        assert self._handle is not None
        blob = base64.b64encode(pickle.dumps(explanation)).decode("ascii")
        line = json.dumps(
            {
                "position": position,
                "key": _entry_key(position, block),
                "precision": explanation.precision,
                "coverage": explanation.coverage,
                "num_features": len(explanation.features),
                "payload": blob,
            }
        )
        self._handle.write(line + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
