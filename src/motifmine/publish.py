"""The output-directory contract of a pipeline run and of a synthetic world.

Every file name a run or a world will take in its output directory is
checked before anything is computed (`check_targets`). Nothing is written
until every computation has succeeded. The files are then staged in a
directory inside the output directory and renamed into place, the last one
last, only after the last one is written (`write_outputs`), so a failure
leaves the previous files (and any unrelated file) as they were.
"""

import os
import shutil
import tempfile
from pathlib import Path


def check_targets(out_dir, names):
    """Refuse (ValueError) an output directory whose nearest existing
    ancestor is not a directory, or that holds one of `names` as something
    other than a regular file: a rename onto a directory or other non-file
    fails, so this runs before anything is published."""
    out = Path(out_dir)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise ValueError(f"--out is not a directory: {out_dir}")
    for name in names:
        path = out / name
        if path.exists() and not path.is_file():
            raise ValueError(f"cannot replace {path}: it is not a regular file")


def write_outputs(out_dir: Path, writers: dict) -> dict:
    """Publish the files of `writers`, a dict of file name -> writer(path);
    returns their paths, keyed by file stem.

    Each writer fills a file in one staging directory inside `out_dir`, so
    every rename stays on one filesystem. Only after the last writer has
    succeeded, and every target is checked again (`check_targets`), is each
    file renamed into place, in the order of `writers`: the last one last.
    Files in `out_dir` that are not named in `writers` are left alone.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(dir=out_dir, prefix=".staging-"))
    try:
        for name, writer in writers.items():
            writer(staging / name)
        check_targets(out_dir, writers)  # the directory may have changed since the first check
        for name in writers:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return {Path(name).stem: out_dir / name for name in writers}
