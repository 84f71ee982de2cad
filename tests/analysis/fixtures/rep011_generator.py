"""REP011: generator called as a bare statement never runs its body."""


def proto_step():
    yield 1
    yield 2


def broken_driver():
    proto_step()  # BAD REP011
    return True


def good_driver():
    yield from proto_step()


def good_loop():
    total = 0
    for item in proto_step():
        total += item
    return total


def good_argument(env):
    env.process(proto_step())


def plain_with_nested_generator(env):
    def later():
        yield env.timeout(1.0)

    env.process(later())


def good_plain_call():
    plain_with_nested_generator(None)  # GOOD: only its nested def yields


class Daemon:
    def __init__(self, env):
        self.env = env

    def _loop(self):
        yield self.env.timeout(1.0)

    def _take_offline(self):
        # a plain method holding a generator: calling it runs it
        def _down():
            yield self.env.timeout(1.0)

        self.env.process(_down())

    def broken_start(self):
        self._loop()  # BAD REP011

    def good_start(self):
        self._take_offline()  # GOOD: not a generator
        self.env.process(self._loop())

    def good_delegate(self):
        yield from self._loop()
        for _ in self._loop():
            pass


class Ticker:
    def __init__(self, env):
        self.env = env

    def tick(self):
        yield self.env.timeout(1.0)


class Plain:
    def tick(self):
        return 1

    def run(self):
        self.tick()  # GOOD: only Ticker's tick is a generator
