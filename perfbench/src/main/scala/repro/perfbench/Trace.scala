package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** One timed call into a layer of the program. `parent` is the id of the
  * enclosing span, or -1 for a case's root span.
  */
final case class Span(id: Int, name: String, caseId: String, parent: Int,
                      startNs: Long, endNs: Long, jobs: Int) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Times the benchmark's calls into each layer. Every call is timed, since
  * the end-to-end metrics are sums of layer times. A traced recorder also
  * keeps one [[Span]] per call and counts the Spark jobs each call starts,
  * through a listener that exists only while tracing.
  */
final class Recorder(sc: SparkContext, val traced: Boolean) {
  private val SpanKey = "repro.perfbench.span"
  private val done = mutable.ArrayBuffer[Span]()
  private var open: List[Int] = Nil
  private val jobsBySpan = new ConcurrentHashMap[Int, AtomicInteger]()

  private val listener = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit =
      Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).foreach { id =>
        jobsBySpan.computeIfAbsent(id.toInt, _ => new AtomicInteger()).incrementAndGet()
      }
  }
  if (traced) sc.addSparkListener(listener)

  /** Run `body` as a call into layer `name`. */
  def time[A](name: String, caseId: String)(body: => A): A = {
    val id = Recorder.newId()
    val parent = open.headOption.getOrElse(-1)
    if (traced) { open = id :: open; sc.setLocalProperty(SpanKey, id.toString) }
    val start = System.nanoTime()
    try body
    finally {
      val end = System.nanoTime()
      if (traced) {
        open = open.tail
        sc.setLocalProperty(SpanKey, open.headOption.map(_.toString).orNull)
        done += Span(id, name, caseId, parent, start, end, 0)
      }
    }
  }

  /** Record a phase that the program timed itself and that starts its last
    * call (PSE inside `Tempura.optimize`), as a child span of that call.
    */
  def firstPhase(name: String, nanos: Long): Unit =
    if (traced) {
      val p = done.last
      done += Span(Recorder.newId(), name, p.caseId, p.id, p.startNs, p.startNs + nanos, 0)
    }

  /** Every span recorded so far, with its own Spark job count. */
  def spans(): Vector[Span] = {
    if (traced) Recorder.drainListenerBus(sc)
    done.toVector.map(s => s.copy(jobs = Option(jobsBySpan.get(s.id)).map(_.get).getOrElse(0)))
  }

  def stop(): Unit = if (traced) sc.removeSparkListener(listener)
}

object Recorder {
  private var lastId = -1
  /** Span ids are unique across the recorders of a run. */
  private def newId(): Int = { lastId += 1; lastId }

  /** Wait until Spark has delivered every posted event to the listeners. The
    * bus is internal to Spark, so it is reached by reflection.
    */
  def drainListenerBus(sc: SparkContext): Unit = {
    val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty", classOf[Long]).invoke(bus, Long.box(30000L))
  }

  /** Self time: a span's duration minus the part its children cover. */
  def selfSeconds(spans: Vector[Span]): Map[Int, Double] = {
    val kids = spans.groupBy(_.parent)
    spans.map(s => s.id -> (s.seconds - kids.getOrElse(s.id, Vector.empty).map(_.seconds).sum)).toMap
  }

  def toJson(spans: Vector[Span], origin: Long): String =
    spans.map { s =>
      s"""{"id":${s.id},"name":"${s.name}","case":"${s.caseId}","parent":${s.parent},""" +
      f""""start_s":${(s.startNs - origin) / 1e9}%.6f,"end_s":${(s.endNs - origin) / 1e9}%.6f,"jobs":${s.jobs}}"""
    }.mkString("[\n", ",\n", "\n]\n")
}
