package repro.deathstar

import java.nio.file.{Files, Path, Paths}
import scala.jdk.CollectionConverters._

/** Source-line accounting for the paper's LOC comparison (§4):
  * "in StateFlow all the benchmark services are implemented in ±200 LOC,
  * whereas the original Go implementation spans ±500 LOC [of which] around
  * 30% cover infrastructure code".
  *
  * Counts non-blank, non-comment lines. Infrastructure in the baseline is
  * fenced with `// infra:begin` / `// infra:end` markers.
  */
object Loc {

  final case class Count(total: Int, infra: Int) {
    def business: Int = total - infra
    def infraShare: Double = if (total == 0) 0.0 else infra.toDouble / total
  }

  /** Locate the repository root by walking up from the working directory
    * until `build.sbt` is found (benches run with cwd = bench/). */
  def repoRoot: Path = {
    var dir = Paths.get("").toAbsolutePath
    while (dir != null && !Files.exists(dir.resolve("build.sbt")))
      dir = dir.getParent
    require(dir != null, "could not locate repository root (no build.sbt upward)")
    dir
  }

  private def isCode(line: String): Boolean = {
    val t = line.trim
    t.nonEmpty && !t.startsWith("//") && !t.startsWith("*") &&
      !t.startsWith("/*") && !t.startsWith("*/")
  }

  /** Count code lines in `file` (path relative to the repo root),
    * attributing fenced regions to infra. */
  def count(relPath: String): Count = {
    val p = repoRoot.resolve(relPath)
    require(Files.exists(p), s"no such file: $p")
    val lines = Files.readAllLines(p).asScala.toList
    var infra = false
    var total = 0
    var infraCount = 0
    lines.foreach { line =>
      val t = line.trim
      if (t.startsWith("// infra:begin")) infra = true
      else if (t.startsWith("// infra:end")) infra = false
      else if (isCode(line)) {
        total += 1
        if (infra) infraCount += 1
      }
    }
    Count(total, infraCount)
  }

  /** The StateFlow hotel application, counted in the paper's *input
    * language*: the entity program rendered back to annotated Python by
    * [[repro.core.PyPrinter]] (counting our Scala AST constructors would
    * measure the IR encoding, not what a developer writes). StateFlow
    * programs contain no infrastructure code by construction. */
  def stateflowHotel: Count =
    Count(repro.core.PyPrinter.locOf(HotelApp.program), 0)

  /** The baseline microservice implementation, infra fenced. */
  def baselineHotel: Count =
    count("src/main/scala/repro/deathstar/BaselineHotel.scala")

  /** Lines needed to switch the StateFlow app between two runtimes — the
    * paper: "switching between the different runtimes requires less than 10
    * lines of code". Counted from the RuntimeSwitch demo. */
  def runtimeSwitch: Count =
    count("src/main/scala/repro/deathstar/RuntimeSwitch.scala")
}
