"""Run manifests: what was run, with what seed, producing which bytes."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import ConfigError

__all__ = ["RunManifest", "sha256", "file_sha256", "build_manifest", "write_manifest",
           "verify_manifest"]

MANIFEST_NAME = "run_manifest.json"


# The interpreter's own SHA-256, with hashlib's digests: importing hashlib
# loads OpenSSL's libcrypto, which no command needs (cli.main() blocks it for
# the hashlib and hmac that numpy.random imports).
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # a build without the builtin hashes
        from hashlib import sha256


def file_sha256(path) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="microseconds")


@dataclass
class RunManifest:
    scenario_hash: str
    tool_version: str
    command: str
    seed: int
    started_at: str
    finished_at: str
    artifacts: list


def build_manifest(
    scenario_digest: str,
    command: str,
    seed: int,
    started_at: str,
    artifact_paths,
    base_dir,
) -> RunManifest:
    base = Path(base_dir)
    artifacts = []
    for p in artifact_paths:
        p = Path(p)
        artifacts.append(
            {
                "path": str(p.relative_to(base)),
                "sha256": file_sha256(p),
                "bytes": p.stat().st_size,
            }
        )
    from . import __version__

    return RunManifest(
        scenario_hash=scenario_digest,
        tool_version=__version__,
        command=command,
        seed=seed,
        started_at=started_at,
        finished_at=utc_now(),
        artifacts=artifacts,
    )


def write_manifest(manifest: RunManifest, out_dir) -> Path:
    path = Path(out_dir) / MANIFEST_NAME
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def verify_manifest(path) -> list:
    """Re-hash the recorded artifacts; returns a list of mismatch messages."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read manifest {path}: {exc}") from None
    problems = []
    for entry in data.get("artifacts", []):
        target = path.parent / entry["path"]
        if not target.exists():
            problems.append(f"missing artifact {entry['path']}")
            continue
        if file_sha256(target) != entry["sha256"]:
            problems.append(f"checksum mismatch for {entry['path']}")
    return problems
