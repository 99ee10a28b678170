"""Job-level chunk checkpointing: a daemon restart reruns nothing done.

A fleet-scale job decomposes into hundreds of deterministic work-unit
chunks.  Before this module, a daemon that died mid-job lost *all* of the
job's progress: queue recovery requeued the job and the retry started
from unit zero.  :class:`CheckpointedBackend` wraps any execution backend
and persists each chunk's outputs as they complete (atomic temp-file +
rename, one pickle per chunk), so the requeued job's retry loads the
completed chunks from disk and executes only the remainder.

Byte-identity is preserved by construction: chunk boundaries are a pure
function of the unit count (never of worker count or timing), chunk
execution is deterministic in the spec's seeds, and a pickle round-trip
of the outputs is value-exact — so ``resumed outputs + fresh outputs``
combine into exactly the envelope a fault-free serial run stores.  The
chaos suite asserts this byte-for-byte after SIGKILLing a daemon mid-job.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments.cache import ExperimentContext
from repro.experiments.runner import ExecutionBackend, checkpoint_chunks
from repro.experiments.specs import ExperimentSpec
from repro.testing import chaos
from repro.utils.resilience import Deadline

PathLike = Union[str, Path]

#: Chunk files are ``chunk-<index>.pkl`` under the checkpoint directory.
_CHUNK_PREFIX = "chunk-"

#: Chunk file header: magic + sha256 of the pickle payload that follows.
#: A flipped bit anywhere in the file (silent bit-rot, the chaos
#: ``corrupt`` kind) breaks the digest, the chunk is dropped at load time
#: and simply rerun — a corrupted checkpoint can never smuggle wrong
#: values into a resumed job.  A file without the header is never
#: unpickled, and a payload that is not the writer's ``{"owner",
#: "outputs"}`` dict is never resumed: either way the chunk is rerun.
_CHUNK_MAGIC = b"ckpt1"


class ChaosWriteError(OSError):
    """A cooperatively injected write failure (see ``checkpoint.write``)."""


class ChunkCheckpoint:
    """Directory of per-chunk output pickles for one job.

    Each completed chunk is one ``chunk-<index>.pkl`` file, written
    atomically (temp + ``os.replace``) so a crash mid-write can never
    leave a truncated checkpoint that poisons the resume — a partial temp
    file is simply ignored by :meth:`load`.

    ``owner`` (the service passes the job id) is stamped into every chunk
    written and checked on load: a chunk carrying a different owner is a
    foreign file — however it got there — and is skipped, never resumed.
    The count/length guard in :class:`CheckpointedBackend` catches shape
    drift; the owner tag catches same-shape foreign outputs it cannot.
    """

    def __init__(self, directory: PathLike, owner: Optional[str] = None):
        self.directory = Path(directory)
        self.owner = owner

    def path_for(self, index: int) -> Path:
        """The file chunk ``index``'s outputs are stored at."""
        return self.directory / f"{_CHUNK_PREFIX}{index:06d}.pkl"

    def save_chunk(self, index: int, outputs: List[Any]) -> Path:
        """Atomically persist one chunk's outputs; returns the written path.

        The file is ``magic + sha256(payload) + payload`` so silent
        corruption (including the chaos ``corrupt`` kind, which flips one
        bit of the committed file) is always caught by :meth:`load`.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(index)
        tmp = path.with_suffix(".pkl.tmp")
        payload = {"owner": self.owner, "outputs": outputs}
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        framed = _CHUNK_MAGIC + hashlib.sha256(blob).digest() + blob
        action = chaos.fault_point("checkpoint.write")
        if action == "partial_write":
            tmp.write_bytes(framed[: max(1, len(framed) // 2)])
            raise ChaosWriteError(f"injected partial checkpoint write at chunk {index}")
        if action == "corrupt":
            framed = chaos.corrupt_bytes(framed, "checkpoint.write")
        tmp.write_bytes(framed)
        os.replace(tmp, path)
        return path

    def load(self) -> Dict[int, List[Any]]:
        """Every completed chunk on disk, as ``{chunk index: outputs}``.

        Unreadable, truncated or digest-mismatched files (a torn write
        from a crash that beat the rename, a foreign file, silent
        bit-rot) are skipped — the resume simply reruns those chunks,
        which is always correct.  A chunk stamped with a *different*
        owner than this checkpoint's is skipped the same way: it belongs
        to another job and must never be combined into this one.
        """
        completed: Dict[int, List[Any]] = {}
        if not self.directory.is_dir():
            return completed
        for path in sorted(self.directory.glob(f"{_CHUNK_PREFIX}*.pkl")):
            try:
                index = int(path.stem[len(_CHUNK_PREFIX):])
                raw = path.read_bytes()
                if not raw.startswith(_CHUNK_MAGIC):
                    continue  # headerless file: never unpickled, rerun the chunk
                digest = raw[len(_CHUNK_MAGIC) : len(_CHUNK_MAGIC) + 32]
                blob = raw[len(_CHUNK_MAGIC) + 32 :]
                if hashlib.sha256(blob).digest() != digest:
                    continue  # corrupted checkpoint: rerun the chunk
                payload = pickle.loads(blob)
                if not (isinstance(payload, dict) and "outputs" in payload):
                    continue  # not a payload the writer produces: rerun it
                chunk_owner = payload.get("owner")
                if self.owner is not None and chunk_owner not in (None, self.owner):
                    continue  # foreign job's chunk: never resume it
                completed[index] = payload["outputs"]
            except (ValueError, OSError, pickle.UnpicklingError, EOFError):
                continue
        return completed

    def clear(self) -> None:
        """Remove the checkpoint directory (job finished; nothing to resume)."""
        shutil.rmtree(self.directory, ignore_errors=True)


class CheckpointedBackend(ExecutionBackend):
    """Wrap a backend so completed chunks survive a daemon crash.

    ``run_units`` splits the units with :func:`checkpoint_chunks`, loads
    every chunk the checkpoint directory already holds, hands only the
    missing chunks to the inner backend's
    :meth:`~repro.experiments.runner.ExecutionBackend.run_chunks` (one
    process pool per job), saves each chunk's outputs as they arrive in
    chunk order, so each completion is durable the moment it is
    collected, and returns the combined outputs in unit order.
    ``last_resumed``/``last_executed`` report the split for observability
    and tests.

    A :class:`~repro.utils.resilience.Deadline` assigned to
    :attr:`deadline` is checked at every chunk boundary: a job whose
    budget is spent raises ``DeadlineExceeded`` there instead of running
    on, and the pool's not-yet-started chunks are cancelled — completed
    chunks stay checkpointed, so a later resubmission with a fresh budget
    resumes rather than reruns.

    :attr:`checkpoint` and :attr:`deadline` are **thread-bound**: an
    assignment is visible only to the assigning thread (the constructor
    binds the constructing thread).  The service runs each watched job on
    its own worker thread and binds that job's checkpoint/deadline there,
    so a watchdog-abandoned thread — a job that was slow but not dead —
    keeps its own binding: it can neither hit a nulled-out checkpoint nor
    write its chunks into the checkpoint directory of whatever job the
    daemon claims next.
    """

    name = "checkpointed"

    def __init__(
        self,
        inner: ExecutionBackend,
        checkpoint: Optional[ChunkCheckpoint] = None,
    ):
        self.inner = inner
        self.last_resumed = 0
        self.last_executed = 0
        self._bound = threading.local()
        if checkpoint is not None:
            self.checkpoint = checkpoint

    @property
    def checkpoint(self) -> Optional[ChunkCheckpoint]:
        """This thread's checkpoint binding (``None`` when unbound)."""
        return getattr(self._bound, "checkpoint", None)

    @checkpoint.setter
    def checkpoint(self, value: Optional[ChunkCheckpoint]) -> None:
        self._bound.checkpoint = value

    @property
    def deadline(self) -> Optional[Deadline]:
        """This thread's deadline binding (``None`` when unbound)."""
        return getattr(self._bound, "deadline", None)

    @deadline.setter
    def deadline(self, value: Optional[Deadline]) -> None:
        self._bound.deadline = value

    def run_units(
        self,
        spec: ExperimentSpec,
        units: Sequence[Mapping[str, Any]],
        context: ExperimentContext,
    ) -> List[Any]:
        """Execute ``units``, resuming any chunks already checkpointed."""
        if not units:
            return []
        if self.checkpoint is None:
            return self.inner.run_units(spec, units, context)
        chunks = checkpoint_chunks(units)
        completed = self.checkpoint.load()
        # A stale checkpoint whose chunk map no longer lines up (the spec
        # changed unit count under the same job id) must not be combined.
        stale = [i for i in completed if i >= len(chunks) or len(completed[i]) != len(chunks[i])]
        for index in stale:
            del completed[index]
        self.last_resumed = len(completed)
        self.last_executed = 0
        outputs_by_chunk: Dict[int, List[Any]] = dict(completed)
        missing = [index for index in range(len(chunks)) if index not in completed]
        results = self.inner.run_chunks(spec, [chunks[index] for index in missing], context)
        try:
            for index in missing:
                if self.deadline is not None:
                    self.deadline.check("job")
                chaos.fault_point("service.chunk")
                outputs = next(results)
                self.checkpoint.save_chunk(index, outputs)
                outputs_by_chunk[index] = outputs
                self.last_executed += 1
        finally:
            results.close()
        combined: List[Any] = []
        for index in range(len(chunks)):
            combined.extend(outputs_by_chunk[index])
        return combined
