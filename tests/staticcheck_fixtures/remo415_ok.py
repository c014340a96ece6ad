"""Clean: every stream handle is closed, scoped, or handed off."""

import asyncio


async def closing_client(host, port):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(b"ping")
        await writer.drain()
        return await reader.read(4)
    finally:
        writer.close()


async def scoped_server(handler, host, port):
    server = await asyncio.start_server(handler, host, port)
    async with server:
        await server.serve_forever()


class Pool:
    def __init__(self):
        self.writer = None

    async def dial(self, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        del reader
        self.writer = writer


async def delegating(registry, handler, host, port):
    server = await asyncio.start_server(handler, host, port)
    registry.adopt(server)


async def closing_protocol_server(factory, host, port):
    server = await asyncio.get_running_loop().create_server(factory, host, port)
    try:
        await asyncio.sleep(1.0)
    finally:
        server.close()
