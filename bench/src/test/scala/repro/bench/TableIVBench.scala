package repro.bench

import repro.harness.{Experiments, Profile}

/** Paper Table IV + §VI-D generalizability: the web-table benchmark.
  *
  * Every corpus table is iterated as a potential source with itself
  * excluded from discovery. Expected shape (paper): Gen-T reclaims the
  * planted multi-table sources perfectly (Pre = 1.0 on the common
  * non-empty sources), finds the duplicate sets, and dominates ALITE /
  * ALITE-PS / Auto-Pipeline* on precision while matching their recall.
  */
class TableIVBench extends BenchSpec {

  test("Table IV: WDC Sample + T2D Gold (web corpus)") {
    val (t, planted) = Experiments.tableIV(session, Profile.Bench, BenchSupport.lakes)
    BenchSupport.emit("table4.txt", t.text)

    val byM = t.aggs.map(a => a.method -> a).toMap
    val genT = byM("Gen-T")
    for ((m, a) <- byM if m != "Gen-T" && !a.pre.isNaN)
      assert(genT.pre >= a.pre - 1e-9, s"Gen-T precision must lead on common sources: $m")
    // Every planted reclaimable/duplicate source must be perfectly reclaimed.
    val genTPerfect = t.perfect("Gen-T")
    planted.foreach(s => assert(genTPerfect.contains(s), s"missed planted $s"))
  }
}
