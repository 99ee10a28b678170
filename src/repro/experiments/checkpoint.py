"""Job-level chunk checkpointing: a daemon restart reruns nothing done.

A fleet-scale job decomposes into hundreds of deterministic work-unit
chunks (:func:`checkpoint_chunks`).  Before this module, a daemon that
died mid-job lost *all* of the job's progress: queue recovery requeued
the job and the retry started from unit zero.  When
:meth:`~repro.experiments.runner.ExperimentRunner.run` is given a
:class:`ChunkCheckpoint`, it persists each chunk's outputs as they
complete (atomic temp-file + rename, one pickle per chunk), so the
requeued job's retry loads the completed chunks from disk
(:meth:`ChunkCheckpoint.resumable`) and executes only the remainder.

Byte-identity is preserved by construction: chunk boundaries are a pure
function of the unit count (never of worker count or timing), chunk
execution is deterministic in the spec's seeds, and a pickle round-trip
of the outputs is value-exact — so ``resumed outputs + fresh outputs``
combine into exactly the envelope a fault-free serial run stores.  The
chaos suite asserts this byte-for-byte after SIGKILLing a daemon mid-job.
"""

from __future__ import annotations

import hashlib
import pickle
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.utils.resilience import ChaosWriteError, atomic_write  # noqa: F401 - re-exported

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


def checkpoint_chunks(units: Sequence) -> List[Sequence]:
    """Split ``units`` into the stable, contiguous chunks work is cut into.

    The boundaries depend only on ``len(units)``, **never** on worker
    counts or timing, so a restarted job re-derives the identical chunk
    map and its saved checkpoint files line up.  Sizing targets ~16
    chunks: fine-grained enough that a crash loses little work and a
    pool stays busy, coarse enough that checkpoint I/O and task dispatch
    are noise.
    """
    size = max(1, len(units) // 16)
    return [units[start : start + size] for start in range(0, len(units), size)]


class ChunkCheckpoint:
    """Directory of per-chunk output pickles for one job.

    Each completed chunk is one ``chunk-<index>.pkl`` file, written
    atomically (temp + ``os.replace``) so a crash mid-write can never
    leave a truncated checkpoint that poisons the resume — a partial temp
    file is simply ignored by :meth:`load`.

    ``owner`` (the service passes the job id) is stamped into every chunk
    written and checked on load: a chunk carrying a different owner is a
    foreign file — however it got there — and is skipped, never resumed.
    The chunk-map guard in :meth:`resumable` catches shape drift; the
    owner tag catches same-shape foreign outputs it cannot.
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
        corruption (including the chaos ``corrupt`` kind at
        ``checkpoint.write``, which flips one bit of the committed file)
        is always caught by :meth:`load`; ``partial_write`` there raises
        :class:`~repro.utils.resilience.ChaosWriteError`.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(index)
        payload = {"owner": self.owner, "outputs": outputs}
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        atomic_write(path, _CHUNK_MAGIC + hashlib.sha256(blob).digest() + blob, "checkpoint.write")
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

    def resumable(self, chunks: Sequence[Sequence]) -> Dict[int, List[Any]]:
        """The saved chunks that line up with ``chunks``, by chunk index.

        A stale checkpoint whose chunk map no longer matches (the spec
        changed unit count under the same job id) must not be combined:
        only indexes in ``0..len(chunks)-1`` whose output count equals
        that chunk's unit count are kept.
        """
        return {
            index: outputs
            for index, outputs in self.load().items()
            if 0 <= index < len(chunks) and len(outputs) == len(chunks[index])
        }

    def clear(self) -> None:
        """Remove the checkpoint directory (job finished; nothing to resume)."""
        shutil.rmtree(self.directory, ignore_errors=True)
