"""Run manifests: what was run, with what seed, producing which bytes."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

from .errors import ConfigError

__all__ = ["sha256", "file_sha256", "write_json", "write_manifest", "verify_manifest"]

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


def write_json(path, payload) -> Path:
    """Write ``payload`` as JSON with sorted keys, an indent of 2 and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_manifest(out_dir, scenario_digest: str, command: str, seed: int, started_at: str,
                   artifact_paths) -> Path:
    """Hash the artifacts under ``out_dir``, then write their manifest there."""
    base = Path(out_dir)
    artifacts = [
        {"path": str(p.relative_to(base)), "sha256": file_sha256(p), "bytes": p.stat().st_size}
        for p in map(Path, artifact_paths)
    ]
    from . import __version__

    return write_json(base / MANIFEST_NAME, {
        "scenario_hash": scenario_digest,
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "started_at": started_at,
        "finished_at": utc_now(),
        "artifacts": artifacts,
    })


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
