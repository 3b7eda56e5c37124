package repro.discovery

import repro.{Fixtures, SparkSpec}
import repro.core.KeyedRows

/** Matrix Traversal (Algorithm 1, §V-A3) on the paper's Figure 3/5
  * scenario: candidates A, B(+A), C(+A), D(+A); traversal must reject the
  * contradicting Table C.
  */
class MatrixTraversalSpec extends SparkSpec {

  private lazy val source = Fixtures.figure3Source(spark)
  private val nNonKey = 4 // Name, Age, Gender, Education

  /** The fixture's matrices: A–D collected, expanded and initialized on
    * the driver.
    */
  private def matrices: Map[String, MatrixTraversal.Matrix] = {
    val (src, tables) = KeyedRows.collect(source, Seq(
      Fixtures.tableA(spark), Fixtures.tableB(spark), Fixtures.tableC(spark), Fixtures.tableD(spark)))
    val expanded = Expand.expandAll(Seq("A", "B", "C", "D").zip(tables), src)
    MatrixTraversal.initMatrices(expanded.map(e => e.name -> e.table), src)
  }

  test("matrix of Table A codes matches Figure 5") {
    val ms = matrices
    val mA = ms("A")
    // Row 0 (Smith): Name=1, Age=0 (A lacks Age → null, S non-null),
    // Gender=1 (both null), Education=1.
    assert(mA.rows("0") == Seq(Vector(1, 0, 1, 1)))
    // Row 1 (Brown): Education null in A where S has Masters → 0;
    // Gender: S Male vs null → 0.
    assert(mA.rows("1") == Seq(Vector(1, 0, 0, 0)))
    // Row 2 (Wang): Education HighSchool=1.
    assert(mA.rows("2") == Seq(Vector(1, 0, 0, 1)))
  }

  test("matrix of expanded C has -1 codes for contradicting Gender") {
    val ms = matrices
    val mC = ms.keys.find(_.contains("C")).map(ms).get
    // Wang's Gender is Male in C but Female in S → -1 at Gender.
    assert(mC.rows("2").head(2) == -1)
    // Smith's Gender is Male in C but null in S → -1 (error on a source null).
    assert(mC.rows("0").head(2) == -1)
    // Brown's Gender matches → 1.
    assert(mC.rows("1").head(2) == 1)
  }

  test("combine merges complementary rows and keeps conflicts separate") {
    val m1 = MatrixTraversal.Matrix(Map("0" -> Seq(Vector(1, 0, 1, 1))))
    val m2 = MatrixTraversal.Matrix(Map("0" -> Seq(Vector(1, 1, 0, 0))))
    val c = MatrixTraversal.combine(m1, m2)
    assert(c.rows("0") == Seq(Vector(1, 1, 1, 1)))

    val conflicting = MatrixTraversal.Matrix(Map("0" -> Seq(Vector(1, 1, -1, 0))))
    val kept = MatrixTraversal.combine(m1, conflicting)
    assert(kept.rows("0").toSet == Set(Vector(1, 0, 1, 1), Vector(1, 1, -1, 0)))
  }

  test("combine carries keys present on only one side") {
    val m1 = MatrixTraversal.Matrix(Map("0" -> Seq(Vector(1, 1, 1, 1))))
    val m2 = MatrixTraversal.Matrix(Map("1" -> Seq(Vector(1, 0, 0, 0))))
    val c = MatrixTraversal.combine(m1, m2)
    assert(c.rows.keySet == Set("0", "1"))
  }

  test("evaluate equals the simulated EIS") {
    // One perfect row, one missing key of a 2-row source with 4 non-key cols.
    val m = MatrixTraversal.Matrix(Map("0" -> Seq(Vector(1, 1, 1, 1))))
    assert(math.abs(MatrixTraversal.evaluate(m, 2, nNonKey) - 0.5) < 1e-12)
    // A -1 subtracts from the row score.
    val e = MatrixTraversal.Matrix(Map("0" -> Seq(Vector(1, 1, 1, -1))))
    assert(math.abs(MatrixTraversal.evaluate(e, 1, nNonKey) - 0.5 * (1 + 0.5)) < 1e-12)
  }

  test("traversal keeps A/B/D and rejects contradicting C (Example 10)") {
    val ms = matrices
    val picked = MatrixTraversal.traverse(ms, 3, nNonKey)
    assert(picked.nonEmpty)
    assert(!picked.exists(_.contains("C")), s"C must be rejected, got $picked")
    // The picked set must reach a perfect simulated EIS (A+B+D cover S).
    val combined = picked.map(ms).reduce((x, y) => MatrixTraversal.combine(x, y))
    assert(math.abs(MatrixTraversal.evaluate(combined, 3, nNonKey) - 1.0) < 1e-12)
  }

  test("traversal stops when no table improves the score") {
    val good = MatrixTraversal.Matrix(Map(
      "0" -> Seq(Vector(1, 1, 1, 1)),
      "1" -> Seq(Vector(1, 1, 1, 1)),
      "2" -> Seq(Vector(1, 1, 1, 1))))
    val bad = MatrixTraversal.Matrix(Map("0" -> Seq(Vector(-1, -1, -1, -1))))
    val picked = MatrixTraversal.traverse(Map("good" -> good, "bad" -> bad), 3, nNonKey)
    assert(picked == Seq("good"))
  }

  test("empty candidate set yields no originating tables") {
    assert(MatrixTraversal.traverse(Map.empty, 3, nNonKey).isEmpty)
  }
}
