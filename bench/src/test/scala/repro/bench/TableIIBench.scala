package repro.bench

import repro.harness.{Experiments, Harness, Profile}
import repro.harness.Experiments.TableII

/** Paper Table II: ALITE / ALITE-PS / Gen-T on the larger TP-TR
  * benchmarks (TP-TR Med, SANTOS Large +TP-TR Med, TP-TR Large).
  *
  * Expected shape (paper): Gen-T leads Rec/Pre and has the lowest
  * divergences everywhere; plain ALITE degrades (and on Large times out);
  * embedding the lake among distractors (SANTOS) does not hurt Gen-T.
  * Runtimes and output-size ratios (Fig. 8's data) are printed alongside.
  */
class TableIIBench extends BenchSpec {

  private def runOne(which: TableII, file: String): Seq[Harness.Agg] = {
    val t = Experiments.tableII(session, Profile.Bench, BenchSupport.lakes, which)
    BenchSupport.emit(file, t.text)
    t.aggs
  }

  test("Table II: TP-TR Med") {
    val aggs = runOne(TableII.Med, "table2_med.txt")
    val byM = aggs.map(a => a.method -> a).toMap
    val genT = byM("Gen-T")
    for ((m, a) <- byM if m != "Gen-T" && !a.rec.isNaN) {
      assert(genT.pre >= a.pre - 0.05, s"Gen-T precision should lead: $m ${a.pre}")
    }
  }

  test("Table II: SANTOS Large +TP-TR Med (distractor-embedded)") {
    val aggs = runOne(TableII.Santos, "table2_santos.txt")
    val genT = aggs.find(_.method == "Gen-T").get
    assert(genT.rec > 0.5, s"Gen-T must survive distractor embedding: $genT")
  }

  test("Table II: TP-TR Large") {
    val aggs = runOne(TableII.Large, "table2_large.txt")
    val byM = aggs.map(a => a.method -> a).toMap
    // Paper shape: plain ALITE times out on Large (FD is exponential).
    assert(byM("ALITE w/ int. set").timeouts > 0,
      "ALITE w/ int. set should hit the FD cap on Large inputs")
    assert(byM("Gen-T").timeouts == 0)
  }
}
