"""Shared fixtures for the experiment-layer tests."""

from __future__ import annotations

import pytest

from repro.experiments import ChunkCheckpoint


@pytest.fixture
def spy_chunk_saves(monkeypatch):
    """Install a spy on ``ChunkCheckpoint.save_chunk`` and return its record.

    Call it after any set-up saves: the returned list holds the index of
    every chunk saved from then on, in save order, so a run's resumed
    chunks are exactly the ones missing from it.
    """

    def install():
        saved = []
        save_chunk = ChunkCheckpoint.save_chunk

        def spy(self, index, outputs):
            saved.append(index)
            return save_chunk(self, index, outputs)

        monkeypatch.setattr(ChunkCheckpoint, "save_chunk", spy)
        return saved

    return install
