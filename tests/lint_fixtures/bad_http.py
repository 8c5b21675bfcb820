"""Bad fixture: overload responses that drop the retry contract."""


class Handler:
    def unavailable(self):
        body = {"error": "overloaded"}
        return 503, body, False, {"Content-Type": "application/json"}

    async def throttled(self):
        return 429, {"error": "quota"}, False

    def batch_item(self):
        return {"status": "error", "code": 504, "error": "deadline"}
