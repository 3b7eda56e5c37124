package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec

/** Property-based checks of the pairwise tuple operators (driver-side
  * closures shared by β, κ, and the FD substrate). Raw ScalaCheck is used
  * (scalatestplus is not among the offline deps).
  */
class OperatorsPropSpec extends SparkSpec {

  private def check(prop: Prop, min: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), prop)
    assert(res.passed, res.status.toString)
  }

  private val cell: Gen[String] = Gen.oneOf(null, "a", "b", "c")
  private def row(n: Int): Gen[Seq[String]] = Gen.listOfN(n, cell).map(_.toSeq)
  private def rows(n: Int): Gen[Seq[Seq[String]]] =
    Gen.choose(0, 8).flatMap(k => Gen.listOfN(k, row(n)).map(_.toSeq))

  test("subsumes is irreflexive and antisymmetric") {
    check(Prop.forAll(row(4), row(4)) { (a, b) =>
      !Operators.subsumes(a, a) &&
        !(Operators.subsumes(a, b) && Operators.subsumes(b, a))
    })
  }

  test("a tuple with no nulls is never subsumed") {
    check(Prop.forAll(row(4), row(4)) { (a, b) =>
      if (b.forall(_ != null)) !Operators.subsumes(a, b) else true
    })
  }

  test("complement is symmetric") {
    check(Prop.forAll(row(4), row(4)) { (a, b) =>
      Operators.complement(a, b) == Operators.complement(b, a)
    })
  }

  test("merge of complementing tuples subsumes both originals") {
    check(Prop.forAll(row(4), row(4)) { (a, b) =>
      if (Operators.complement(a, b)) {
        val m = Operators.merge(a, b)
        Operators.subsumes(m, a) && Operators.subsumes(m, b)
      } else true
    })
  }

  test("subsumeGroup output has no subsumed or duplicate tuples") {
    check(Prop.forAll(rows(3)) { rs =>
      val out = Operators.subsumeGroup(rs)
      out.distinct == out &&
        !out.exists(r => out.exists(r2 => r2 != r && Operators.subsumes(r2, r)))
    })
  }

  test("subsumeGroup never invents tuples") {
    check(Prop.forAll(rows(3)) { rs =>
      Operators.subsumeGroup(rs).forall(rs.contains)
    })
  }

  test("complementGroup output has no complementing pair") {
    check(Prop.forAll(rows(3)) { rs =>
      !Operators.complementGroup(rs).combinations(2).exists {
        case Seq(x, y) => Operators.complement(x, y)
        case _ => false
      }
    })
  }

  test("complementGroup preserves every non-null cell value somewhere") {
    check(Prop.forAll(rows(3)) { rs =>
      val out = Operators.complementGroup(rs)
      val inCells = rs.flatMap(r => r.zipWithIndex.filter(_._1 != null)).toSet
      val outCells = out.flatMap(r => r.zipWithIndex.filter(_._1 != null)).toSet
      inCells.subsetOf(outCells)
    })
  }

  test("kernel subsumption agrees with the in-memory group closure per key") {
    val keyed: Gen[Seq[Seq[String]]] = Gen.choose(0, 8).flatMap(k =>
      Gen.listOfN(k, Gen.zip(Gen.oneOf(null, "K1", "K2"), row(2)).map { case (key, r) => key +: r })
        .map(_.toSeq))
    check(Prop.forAll(keyed) { rs =>
      val out = KeyedRows.subsumption(KeyedRows.Table(Vector("k", "x", "y"), rs), Seq("k")).rows
      val perKey = rs.filter(_.head != null).groupBy(_.head).values
        .flatMap(g => Operators.subsumeGroup(g)).toSeq
      out.sortBy(_.mkString("|")) == (perKey ++ rs.filter(_.head == null)).sortBy(_.mkString("|"))
    })
  }
}
