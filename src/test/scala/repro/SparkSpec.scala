package repro

import java.util.Properties
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerUnpersistRDD}
import org.apache.spark.sql.{SparkSession, classic}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.SparkScope

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  /** Catalyst analyses run so far in the shared session: its check rule
    * runs once per analysis. */
  private val analyses = new AtomicLong()
  /** Where [[analysedPlansOf]] collects each analysed plan, with the
    * analysing thread's short call site, while it runs. */
  @volatile private var analysed: Option[ConcurrentLinkedQueue[(String, LogicalPlan)]] = None

  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .withExtensions(_.injectCheckRule(session => plan => {
        analyses.incrementAndGet()
        analysed.foreach(_.add(session.sparkContext.getLocalProperty("callSite.short") -> plan))
      }))
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              // 16 keeps the shuffle path exercised while bounding per-stage
              // overhead for the many small incremental steps
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }

  /** Run `body` and count the Catalyst analyses it runs in the shared
    * session. */
  def analysesOf[A](body: => A): (A, Long) = {
    val before = analyses.get
    val a = body
    (a, analyses.get - before)
  }

  /** Run `body` and collect each plan the shared session analyses meanwhile,
    * in order, with the analysing thread's short call site at the time. */
  def analysedPlansOf[A](body: => A): (A, Seq[(String, LogicalPlan)]) = {
    val plans = new ConcurrentLinkedQueue[(String, LogicalPlan)]()
    analysed = Some(plans)
    try (body, plans.asScala.toSeq) finally analysed = None
  }

  /** What a Spark listener saw: a job start or an unpersisted RDD. */
  sealed trait Event
  /** One Spark job: its local properties, the number of stages it spans and
    * the id of the RDD its result stage computes. */
  final case class Job(props: Properties, stages: Int, rdd: Int) extends Event
  /** An RDD whose blocks Spark was asked to remove (`unpersist`). */
  final case class Unpersist(rdd: Int) extends Event

  /** Run `body` and count the Spark jobs it starts ([[jobsOf]]). */
  def countJobs[A](spark: SparkSession)(body: => A): (A, Int) = {
    val (a, jobs) = jobsOf(spark)(body)
    (a, jobs.size)
  }

  /** Run `body` and collect each Spark job it starts, in start order.
    * Adaptive execution is off meanwhile unless `adaptive`: it would submit
    * every shuffle stage of a query as a job of its own, so the jobs would
    * follow the physical plan's shape.
    */
  def jobsOf[A](spark: SparkSession, adaptive: Boolean = false)(body: => A): (A, Seq[Job]) = {
    val (a, events) = eventsOf(spark, adaptive)(body)
    (a, events.collect { case j: Job => j })
  }

  /** Run `body` and collect each Spark job it starts ([[jobsOf]]) and each
    * RDD unpersisted meanwhile, in the order Spark posted them. */
  def eventsOf[A](spark: SparkSession, adaptive: Boolean = false)(body: => A): (A, Seq[Event]) = {
    val sc = spark.sparkContext
    val key = "repro.test.jobsOf"
    val id = java.util.UUID.randomUUID().toString
    val events = new ConcurrentLinkedQueue[Event]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (Option(e.properties).exists(_.getProperty(key) == id))
          events.add(Job(e.properties, e.stageInfos.size, e.stageInfos.maxBy(_.stageId).rddInfos.head.id))
      override def onUnpersistRDD(e: SparkListenerUnpersistRDD): Unit = events.add(Unpersist(e.rddId))
    }
    sc.addSparkListener(listener)
    sc.setLocalProperty(key, id)
    try withConf(spark)("spark.sql.adaptive.enabled" -> adaptive.toString) {
      val a = body
      drain(spark)
      (a, events.asScala.toSeq)
    } finally {
      sc.setLocalProperty(key, null)
      sc.removeSparkListener(listener)
    }
  }

  /** Run `body` and collect the executed plan of each query of `spark` that
    * it runs to completion, in completion order. */
  def plansOf[A](spark: SparkSession)(body: => A): (A, Seq[SparkPlan]) = {
    val plans = new ConcurrentLinkedQueue[SparkPlan]()
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = plans.add(qe.executedPlan)
      def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    val listeners = spark.asInstanceOf[classic.SparkSession].listenerManager
    drain(spark) // the listener would also see queries that ended before it
    listeners.register(listener)
    try {
      val a = body
      drain(spark)
      (a, plans.asScala.toSeq)
    } finally listeners.unregister(listener)
  }

  /** Wait until every listener has seen every event posted so far. */
  private def drain(spark: SparkSession): Unit = {
    val sc = spark.sparkContext
    val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty", classOf[Long]).invoke(bus, Long.box(30000L))
  }

  /** Run `body` with the runtime SQL confs `pairs` set, restored afterwards
    * ([[SparkScope.withConf]]). */
  def withConf[A](spark: SparkSession)(pairs: (String, String)*)(body: => A): A =
    SparkScope.withConf(spark)(pairs: _*)(body)
}
