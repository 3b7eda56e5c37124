"""Build file of the benchmark: compiles Gen-T and the benchmark driver.

Compiles the program's Scala sources (`src/main/scala`) together with the
driver (`genbench/src`) with the Scala compiler that ships in Spark's jars,
so no dependency resolution is needed. `Oracle.scala` is left out: it is
the test oracle, needs DuckDB, and nothing the benchmark runs uses it.

    python3 genbench/build.py [OUT_DIR]

Writes `genbench.jar` into OUT_DIR and prints its path. A build is reused
while no source changed.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
EXCLUDED = {"Oracle.scala"}
DEFAULT_OUT = os.path.join(ROOT, ".bench_build", "genbench", "build")


def spark_jars():
    """Spark's jars: under SPARK_HOME, else next to a `spark-submit` on PATH."""
    homes = [os.environ.get("SPARK_HOME")] + [
        os.path.dirname(os.path.realpath(d))
        for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in filter(None, homes):
        jars = os.path.join(home, "jars")
        if os.path.isdir(jars):
            return os.path.join(jars, "*")
    raise SystemExit("genbench: Spark's jars not found (set SPARK_HOME)")


def sources():
    found = []
    for d in SOURCE_DIRS:
        if not os.path.isdir(d):
            raise SystemExit(f"genbench: source directory {d} is missing")
        for base, _, files in os.walk(d):
            found += [os.path.join(base, f) for f in files
                      if f.endswith(".scala") and f not in EXCLUDED]
    return sorted(found)


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build(out=DEFAULT_OUT):
    files = sources()
    jar = os.path.join(out, "genbench.jar")
    stamp = os.path.join(out, "_SOURCES_SHA256")
    want = digest(files)
    if os.path.exists(stamp) and open(stamp).read() == want:
        return jar
    tmp = out + ".tmp"
    classes = os.path.join(tmp, "classes")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(classes)
    cp = spark_jars()
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", classes, "-classpath", cp] + files
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        raise SystemExit(f"genbench: compilation failed ({res.returncode})")
    # A jar, not a class directory: the JVM's class-data sharing archive
    # accepts only jars on the class path.
    with zipfile.ZipFile(os.path.join(tmp, "genbench.jar"), "w") as z:
        for base, _, names in os.walk(classes):
            for n in sorted(names):
                f = os.path.join(base, n)
                z.write(f, os.path.relpath(f, classes))
    shutil.rmtree(classes)
    with open(os.path.join(tmp, "_SOURCES_SHA256"), "w") as fh:
        fh.write(want)
    shutil.rmtree(out, ignore_errors=True)
    os.rename(tmp, out)
    return jar


if __name__ == "__main__":
    print(build(*sys.argv[1:2]))
