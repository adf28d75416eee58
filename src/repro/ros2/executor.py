"""The single-threaded ROS2 executor (flattened dispatch loop).

One executor thread per node dispatches all its callbacks sequentially:
a callback runs from start to end before the executor looks at the ready
set again (the model assumed in Sec. II-A).  Dispatch routes through the
middleware symbols of Table I, so attached probes observe:

* ``execute_timer`` / ``execute_subscription`` / ``execute_service`` /
  ``execute_client`` entry and exit (P2/P4, P5/P8, P9/P11, P12/P15),
* ``rcl_timer_call`` (P3), ``rmw_take_int`` (P6), ``rmw_take_request``
  (P10), ``rmw_take_response`` (P13), ``take_type_erased_response``
  (P14) and ``message_filters:operator()`` (P7) inside them.

Ready-set polling order mirrors rclcpp's wait-set ordering: timers,
then subscriptions, then services, then clients.

Hot-loop engineering (this is where most simulated events originate;
the traces it yields are pinned by the committed digests in
``tests/data/golden_digests.json``):

* the historical ``yield from`` trampoline chain (``activity`` ->
  ``SymbolTable.call_gen`` -> ``_execute_*`` -> ``_run_callback`` ->
  user callback) is flattened into :meth:`activity` itself.  Every
  resume of the executor thread used to traverse five generator frames;
  it now traverses two (the activity and the user callback's generator,
  driven inline with ``next``/``send``);
* the ``execute_*`` / sync-operator probe windows are inlined.  Entry
  probes fire before the dispatch body with the same args tuple, exit
  probes fire after it with a *fresh* context (the dispatch body may
  contain scheduling points, so exit happens at a later simulated time)
  -- exactly ``call_gen``'s contract.  When no probe is attached the
  fast path skips context construction entirely;
* the probeable :class:`~repro.tracing.symbols.Symbol` objects are
  cached at construction (``register`` is idempotent and returns the
  identity-stable instance whose probe lists attach/detach mutate in
  place, so cached symbols observe later attachments);
* one :class:`CallbackApi` and one ``MessageInfo`` are reused across
  dispatches -- both are overwritten, never retained, by a dispatch.

Inner plain (non-generator) middleware functions -- ``rcl_timer_call``,
the ``rmw_take_*`` family, ``take_type_erased_response`` -- get the
same inlined probe window: entry and exit fire at one simulated
instant sharing one context, exactly ``SymbolTable.call``'s contract
minus its frame and name lookup.
"""

from __future__ import annotations

from typing import Any

from ..sim.threads import Block, Compute
from ..sim.workload import WorkloadModel
from .service import ResponseEnvelope
from .subscription import MessageInfo

#: Block carries no state, so every idle poll yields this one instance
#: instead of allocating a fresh request object.
_BLOCK = Block()


class CallbackApi:
    """Facilities available to user callbacks while they run.

    One instance per executor, passed as the first argument to every
    user callback (it carries no per-dispatch state).
    """

    def __init__(self, node):
        self.node = node
        self.world = node.world

    @property
    def now(self) -> int:
        """Current simulated time (ns)."""
        return self.world.now

    def compute(self, duration_ns: int) -> Compute:
        """Request ``duration_ns`` of CPU time: ``yield api.compute(...)``."""
        return Compute(duration_ns)

    def work(self, model: WorkloadModel) -> Compute:
        """Request CPU time drawn from a workload model."""
        return Compute(model.sample(self.world.rng))

    def publish(self, publisher, msg: Any = None) -> int:
        """Publish on a topic from within the running callback."""
        return publisher.publish(msg)

    def call(self, client, data: Any = None) -> int:
        """Send an asynchronous service request from the running callback."""
        return client.call_async(data)


class SingleThreadedExecutor:
    """Dispatch loop bound to one node (and one OS thread)."""

    def __init__(self, node):
        self.node = node
        self.dispatches = 0
        symbols = node.world.symbols
        self._sym_timer = symbols.register("rclcpp", "execute_timer")
        self._sym_sub = symbols.register("rclcpp", "execute_subscription")
        self._sym_srv = symbols.register("rclcpp", "execute_service")
        self._sym_cli = symbols.register("rclcpp", "execute_client")
        self._sym_sync = symbols.register("message_filters", "operator()")
        # Inner plain middleware functions: their probe windows are
        # inlined in activity() too (entry and exit fire at one
        # simulated instant, sharing one context -- SymbolTable.call's
        # exact contract, minus its frame and name lookup per call).
        self._sym_rcl_call = symbols.register("rcl", "rcl_timer_call")
        self._sym_take_int = symbols.register("rmw_cyclonedds_cpp", "rmw_take_int")
        self._sym_take_req = symbols.register("rmw_cyclonedds_cpp", "rmw_take_request")
        self._sym_take_resp = symbols.register("rmw_cyclonedds_cpp", "rmw_take_response")
        self._sym_type_erased = symbols.register("rclcpp", "take_type_erased_response")
        self._api = CallbackApi(node)
        self._msg_info = MessageInfo()
        self._scheduler = node.world.scheduler

    # ------------------------------------------------------------------

    def notify(self) -> None:
        """Wake the executor thread: new data or a timer tick."""
        thread = self.node._thread
        if thread is not None:
            self._scheduler.wakeup(thread)

    # ------------------------------------------------------------------

    def activity(self):
        """The executor thread's activity generator.

        The four dispatch branches repeat the same three motifs inline
        -- probe window (entry probes / body / fresh-context exit
        probes), take-through-``symbols.call``, and a ``next``/``send``
        loop forwarding the user generator's scheduling requests --
        because hoisting any of them into a helper generator would
        reintroduce the trampoline frame this loop exists to remove.
        """
        node = self.node
        world = node.world
        symbols = world.symbols
        provider = symbols._context_provider
        api = self._api
        msg_info = self._msg_info
        # The probe *lists* (not the symbols) are hoisted: attach/detach
        # mutate them in place, so the locals observe later attachments
        # while the per-dispatch attribute loads disappear.
        timer_entry = self._sym_timer.entry_probes
        timer_exit = self._sym_timer.exit_probes
        sub_entry = self._sym_sub.entry_probes
        sub_exit = self._sym_sub.exit_probes
        srv_entry = self._sym_srv.entry_probes
        srv_exit = self._sym_srv.exit_probes
        cli_entry = self._sym_cli.entry_probes
        cli_exit = self._sym_cli.exit_probes
        sync_entry = self._sym_sync.entry_probes
        sync_exit = self._sym_sync.exit_probes
        rcl_entry = self._sym_rcl_call.entry_probes
        rcl_exit = self._sym_rcl_call.exit_probes
        take_int_entry = self._sym_take_int.entry_probes
        take_int_exit = self._sym_take_int.exit_probes
        take_req_entry = self._sym_take_req.entry_probes
        take_req_exit = self._sym_take_req.exit_probes
        take_resp_entry = self._sym_take_resp.entry_probes
        take_resp_exit = self._sym_take_resp.exit_probes
        type_erased_entry = self._sym_type_erased.entry_probes
        type_erased_exit = self._sym_type_erased.exit_probes

        # Live aliases: the node appends later-created entities to these
        # same list objects, so the hoisted names observe them.
        timers = node.timers
        subscriptions = node.subscriptions
        services = node.services
        clients = node.clients

        # Node init: announce name->PID (ROS2-INIT tracer's P1).
        symbols.call("rmw_cyclonedds_cpp:rmw_create_node", node._rmw_create_node, node)
        for timer in node.timers:
            timer._start()

        while True:
            # The ready-set scan, in rclcpp wait-set order: timers,
            # subs, services, clients.  Runs once per dispatch *and*
            # once per empty poll before blocking, so it stays inline
            # (a method + result tuple were measurable).  for/else falls
            # through to the next entity class only when the previous
            # one had nothing ready.
            for entity in timers:
                if entity.ready:
                    kind = 0
                    break
            else:
                for entity in subscriptions:
                    if entity.reader.queue:
                        kind = 1
                        break
                else:
                    for entity in services:
                        if entity.reader.queue:
                            kind = 2
                            break
                    else:
                        for entity in clients:
                            if entity.reader.queue:
                                kind = 3
                                break
                        else:
                            yield _BLOCK
                            continue
            self.dispatches += 1

            if kind == 0:  # timer
                args = (entity,)
                entry = timer_entry
                exits = timer_exit
                if entry:
                    ctx = provider()
                    for probe in entry:
                        probe(ctx, args)
                ientry = rcl_entry
                iexits = rcl_exit
                if ientry or iexits:
                    ictx = provider()
                    for probe in ientry:
                        probe(ictx, args)
                    iret = entity._rcl_call(entity)
                    for probe in iexits:
                        probe(ictx, args, iret)
                else:
                    entity._rcl_call(entity)
                callback = entity.callback
                if callback is not None:
                    result = callback(api, None)
                    if result is not None and hasattr(result, "__next__"):
                        try:
                            request = next(result)
                            while True:
                                request = result.send((yield request))
                        except StopIteration:
                            pass
                if exits:
                    ctx = provider()
                    for probe in exits:
                        probe(ctx, args, None)

            elif kind == 1:  # subscription
                args = (entity,)
                entry = sub_entry
                exits = sub_exit
                if entry:
                    ctx = provider()
                    for probe in entry:
                        probe(ctx, args)
                ientry = take_int_entry
                iexits = take_int_exit
                if ientry or iexits:
                    iargs = (entity, msg_info)
                    ictx = provider()
                    for probe in ientry:
                        probe(ictx, iargs)
                    payload = entity._rmw_take(entity, msg_info)
                    for probe in iexits:
                        probe(ictx, iargs, payload)
                else:
                    payload = entity._rmw_take(entity, msg_info)
                sync = entity.sync_filter
                if sync is not None:
                    sentry = sync_entry
                    sexits = sync_exit
                    if sentry or sexits:
                        sargs = (entity, payload, api)
                        if sentry:
                            ctx = provider()
                            for probe in sentry:
                                probe(ctx, sargs)
                    ret = None
                    gen = sync.add(entity, payload, api)
                    try:
                        request = next(gen)
                        while True:
                            request = gen.send((yield request))
                    except StopIteration as stop:
                        ret = stop.value
                    if sexits:
                        ctx = provider()
                        for probe in sexits:
                            probe(ctx, sargs, ret)
                else:
                    callback = entity.callback
                    if callback is not None:
                        result = callback(api, payload)
                        if result is not None and hasattr(result, "__next__"):
                            try:
                                request = next(result)
                                while True:
                                    request = result.send((yield request))
                            except StopIteration:
                                pass
                if exits:
                    ctx = provider()
                    for probe in exits:
                        probe(ctx, args, None)

            elif kind == 2:  # service
                args = (entity,)
                entry = srv_entry
                exits = srv_exit
                if entry:
                    ctx = provider()
                    for probe in entry:
                        probe(ctx, args)
                ientry = take_req_entry
                iexits = take_req_exit
                if ientry or iexits:
                    iargs = (entity, msg_info)
                    ictx = provider()
                    for probe in ientry:
                        probe(ictx, iargs)
                    req = entity._rmw_take_request(entity, msg_info)
                    for probe in iexits:
                        probe(ictx, iargs, req)
                else:
                    req = entity._rmw_take_request(entity, msg_info)
                handler = entity.handler
                response_data = None
                if handler is not None:
                    result = handler(api, req.data)
                    if result is not None and hasattr(result, "__next__"):
                        try:
                            request = next(result)
                            while True:
                                request = result.send((yield request))
                        except StopIteration as stop:
                            response_data = stop.value
                    else:
                        response_data = result
                envelope = ResponseEnvelope(
                    client_id=req.client_id, seq=req.seq, data=response_data
                )
                world.dds.write(entity.response_writer, envelope)
                if exits:
                    ctx = provider()
                    for probe in exits:
                        probe(ctx, args, None)

            else:  # client
                args = (entity,)
                entry = cli_entry
                exits = cli_exit
                if entry:
                    ctx = provider()
                    for probe in entry:
                        probe(ctx, args)
                ientry = take_resp_entry
                iexits = take_resp_exit
                if ientry or iexits:
                    iargs = (entity, msg_info)
                    ictx = provider()
                    for probe in ientry:
                        probe(ictx, iargs)
                    envelope = entity._rmw_take_response(entity, msg_info)
                    for probe in iexits:
                        probe(ictx, iargs, envelope)
                else:
                    envelope = entity._rmw_take_response(entity, msg_info)
                ientry = type_erased_entry
                iexits = type_erased_exit
                if ientry or iexits:
                    iargs = (envelope,)
                    ictx = provider()
                    for probe in ientry:
                        probe(ictx, iargs)
                    dispatched = entity._take_type_erased(envelope)
                    for probe in iexits:
                        probe(ictx, iargs, dispatched)
                else:
                    dispatched = entity._take_type_erased(envelope)
                if dispatched:
                    callback = entity.callback
                    if callback is not None:
                        result = callback(api, envelope.data)
                        if result is not None and hasattr(result, "__next__"):
                            try:
                                request = next(result)
                                while True:
                                    request = result.send((yield request))
                            except StopIteration:
                                pass
                if exits:
                    ctx = provider()
                    for probe in exits:
                        probe(ctx, args, None)
