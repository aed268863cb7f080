"""The frame server: one listener, one thread per accepted connection.

TeamNet's edge devices each "run a listening socket to accept incoming
data".  The expert worker, the hot standby master and the RPC server all
serve that socket the same way — read one framed protocol message, answer
it, read the next — so :class:`FrameServer` owns the whole shell and each
owner supplies only its ``handle(msg) -> bytes | None`` callback.
"""

from __future__ import annotations

import threading

from . import protocol

__all__ = ["ACCEPT_POLL_S", "FrameServer"]

#: How long the acceptor blocks in ``accept`` before re-checking whether
#: the server was stopped.
ACCEPT_POLL_S = 0.2


class FrameServer:
    """Thread-per-connection server for framed protocol messages.

    One connection policy for every owner:

    * a malformed frame gets one ``ERROR "bad message: ..."`` reply, then
      the connection is dropped — nothing further on that stream is
      trusted;
    * ``SHUTDOWN`` drops the connection;
    * a failed send drops the connection;
    * ``handle`` returning ``None`` sends no reply (e.g. a standby's
      ``ELECT`` token).

    ``stop()`` closes the listener *and* every accepted connection — a
    serve thread parked in a deadline-less ``recv`` only wakes when its
    socket closes — then joins the acceptor and the serve threads.
    ``start()`` after ``stop()`` rebinds the same (pinned) port, so a peer
    holding the old address can reconnect to a restarted node.

    ``listener`` is the current listener and ``threads`` the serve
    threads not yet reaped; both are public for tests and simulated
    crashes.
    """

    def __init__(self, transport, host: str, port: int, handle):
        self._transport = transport
        self._handle = handle
        self.host = host
        self.listener = transport.listen(host, port)
        self.port = self.listener.port  # pinned for restarts
        self._listening = True
        self._running = False
        self._acceptor: threading.Thread | None = None
        self.threads: list[threading.Thread] = []
        self._conns: set = set()
        self._lock = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        with self._lock:
            if self._running:
                return
            if not self._listening:
                self.listener = self._transport.listen(self.host, self.port)
                self._listening = True
            self._running = True
        self._acceptor = threading.Thread(
            target=self._accept_loop, args=(self.listener,), daemon=True)
        self._acceptor.start()

    def _accept_loop(self, listener) -> None:
        while True:
            try:
                sock = listener.accept(timeout=ACCEPT_POLL_S)
            except TimeoutError:
                continue
            except OSError:
                return  # the listener was closed by stop()
            with self._lock:
                if not self._running or listener is not self.listener:
                    # Accepted after stop() snapshotted the connections:
                    # nobody else would close it.
                    sock.close()
                    return
                self._conns.add(sock)
                # Reap finished serve threads so the list stays bounded
                # instead of growing one entry per client.
                self.threads = [t for t in self.threads if t.is_alive()]
                thread = threading.Thread(target=self._serve, args=(sock,),
                                          daemon=True)
                self.threads.append(thread)
                thread.start()

    def _serve(self, sock) -> None:
        try:
            with sock:
                while True:
                    try:
                        msg = protocol.decode(sock.recv())
                    except protocol.ProtocolError as exc:
                        sock.send(protocol.encode(
                            protocol.ERROR, {"error": f"bad message: {exc}"}))
                        return
                    if msg.kind == protocol.SHUTDOWN:
                        return
                    reply = self._handle(msg)
                    if reply is not None:
                        sock.send(reply)
        except (ConnectionError, OSError):
            return
        finally:
            with self._lock:
                self._conns.discard(sock)

    def stop(self) -> None:
        with self._lock:
            self._running = False
            self._listening = False
            conns, self._conns = list(self._conns), set()
        self.listener.close()
        for sock in conns:
            try:
                sock.close()
            except (ConnectionError, OSError):
                pass
        if self._acceptor is not None:
            # Wait out the acceptor's poll window so the kernel fully
            # releases the listening port — a restart rebinds the same one.
            self._acceptor.join(timeout=1.0)
            self._acceptor = None
        for thread in self.threads:
            thread.join(timeout=1.0)
        self.threads = [t for t in self.threads if t.is_alive()]
