#!/usr/bin/env python3
"""Build file of the hotel-service benchmark.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (hotelbench/src) using the Scala compiler that ships among
Spark's jars, into .bench_build/hotelbench/classes. It rebuilds only when a
source file changed.

    python3 hotelbench/build.py
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "hotelbench"
OUT = ROOT / ".bench_build" / "hotelbench"
CLASSES = OUT / "classes"


class BuildError(Exception):
    pass


def java() -> str:
    """$JAVA_HOME/bin/java when JAVA_HOME is set, else `java` from the PATH."""
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    return str(exe) if exe and exe.is_file() else "java"


def spark_jars() -> Path:
    """The jars directory of the Spark distribution: $SPARK_HOME/jars, or
    the one next to `spark-submit` on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler found; set SPARK_HOME")
    return jars


def sources() -> list:
    program = ROOT / "src" / "main" / "scala"
    if not program.is_dir():
        raise BuildError(f"program sources not found: {program}")
    files = sorted(program.rglob("*.scala")) + sorted((BENCH / "src").rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def classpath() -> str:
    return f"{CLASSES}{os.pathsep}{spark_jars() / '*'}"


def ensure() -> None:
    """Compile unless the classes were built from exactly these sources."""
    jars = spark_jars()
    files = sources()
    digest = hashlib.sha1()
    digest.update(",".join(sorted(p.name for p in jars.glob("scala-*.jar"))).encode())
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = OUT / "stamp"
    if CLASSES.is_dir() and stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return
    tmp = OUT / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    argfile = OUT / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    print(f"[hotelbench] compiling {len(files)} sources", file=sys.stderr)
    res = subprocess.run(
        [java(), "-XX:-UsePerfData", "-Xss8m", "-Xmx2g", "-cp", str(jars / "*"), "scala.tools.nsc.Main",
         "-usejavacp", "-nowarn", "-d", str(tmp), f"@{argfile}"],
        stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        raise BuildError("scalac failed")
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    stamp.write_text(digest.hexdigest())


if __name__ == "__main__":
    try:
        ensure()
    except BuildError as e:
        sys.exit(f"[hotelbench] build failed: {e}")
