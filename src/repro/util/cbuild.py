"""Build a C extension module from its source on first import.

Neither ``PYTHONPATH=src`` runs nor an editable install compile anything
at install time, so the one compiled module of the package
(``repro/core/_walk.c``) is built by the first process that imports it:
with the host's C compiler (``sysconfig``'s ``CC``), into the
``__pycache__`` directory beside the source, under a file name keyed by
the hash of the source, the compile command and ``EXT_SUFFIX``.  Every
later process of that checkout and interpreter loads the cached file and
starts no compiler.

When that directory cannot be written (a package installed into a
read-only prefix), the build goes to the per-user ``~/.cache/repro``
instead, under the same name; a load looks in both places first.

The build writes a temporary file in the cache directory and publishes it
with :func:`os.replace`, so processes that import at the same moment
(campaign pool workers, queue workers) each see either no file or a
whole one; if several compile, the last rename wins with identical bytes.
When no compiler works the import fails with :class:`ImportError`
carrying the command and its stderr: there is no Python fallback.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from types import ModuleType
from typing import List

__all__ = ["load", "compile_command", "cached_path"]

#: compiler flags (part of the cache key)
FLAGS = ("-O2", "-fPIC", "-shared")


def compile_command(source: Path, target: Path) -> List[str]:
    """The command that compiles ``source`` into the extension ``target``."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    flags = list(FLAGS)
    if sys.platform == "darwin":
        flags += ["-undefined", "dynamic_lookup"]
    include = sysconfig.get_paths()["include"]
    return [*cc, *flags, f"-I{include}", str(source), "-o", str(target)]


def cached_path(source: Path) -> Path:
    """Where the build of ``source`` is cached: ``__pycache__`` beside it,
    under a name keyed by the source bytes, the compile command (paths
    aside) and the interpreter's ABI suffix."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    key = hashlib.sha256(source.read_bytes())
    key.update("\0".join(compile_command(Path("src"), Path("out"))).encode())
    key.update(suffix.encode())
    name = f"{source.stem}-{key.hexdigest()[:16]}{suffix}"
    return source.parent / "__pycache__" / name


def _user_cache() -> Path:
    """The per-user cache, for a package directory that cannot be written."""
    return Path.home() / ".cache" / "repro"


def _build(source: Path, target: Path) -> None:
    """Compile ``source`` and publish it at ``target`` in one rename.

    A compiler that fails or does not start is an :class:`ImportError`;
    a cache directory that cannot be made or written is an
    :class:`OSError`."""
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        partial = Path(tmp) / target.name
        cmd = compile_command(source, partial)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(
                f"cannot build {source.name}: `{shlex.join(cmd)}` did not "
                f"start ({exc}); the CSQ walk needs a C compiler"
            ) from exc
        if proc.returncode != 0:
            raise ImportError(
                f"cannot build {source.name}: `{shlex.join(cmd)}` exited "
                f"with status {proc.returncode}:\n{proc.stderr}"
            )
        os.replace(partial, target)


def load(name: str, source: Path) -> ModuleType:
    """The extension module ``name`` compiled from ``source``: loaded from
    :func:`cached_path` or the per-user cache if a build of these exact
    bytes is in either, else built into the first of them that can be
    written."""
    target = cached_path(source)
    if not target.exists():
        user = _user_cache() / target.name
        if user.exists():
            target = user
        else:
            try:
                _build(source, target)
            except OSError as unwritable:
                try:
                    _build(source, user)
                except OSError as exc:
                    raise ImportError(
                        f"cannot build {source.name}: neither {target.parent} "
                        f"({unwritable}) nor {user.parent} ({exc}) can be written"
                    ) from exc
                target = user
    loader = importlib.machinery.ExtensionFileLoader(name, str(target))
    spec = importlib.util.spec_from_file_location(name, target, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module
